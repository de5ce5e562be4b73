type t = int

let empty = 0
let is_empty s = s = 0

let singleton i =
  assert (i >= 0 && i < 62);
  1 lsl i

let add i s = s lor (singleton i)
let remove i s = s land lnot (singleton i)
let mem i s = s land (singleton i) <> 0
let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b

let cardinal s =
  let rec go s acc = if s = 0 then acc else go (s land (s - 1)) (acc + 1) in
  go s 0

let subset a b = a land b = a
let equal (a : t) b = a = b
let compare (a : t) b = Stdlib.compare a b
let hash (s : t) = Hashtbl.hash s

(* Bit walks: neither [min_elt] nor [iter] allocates per member. *)
let min_elt s =
  if s = 0 then invalid_arg "Relset.min_elt: empty set";
  let rec go s i = if s land 1 = 1 then i else go (s lsr 1) (i + 1) in
  go s 0

let of_list l = List.fold_left (fun s i -> add i s) empty l

let iter f s =
  let rec go s i =
    if s <> 0 then begin
      if s land 1 = 1 then f i;
      go (s lsr 1) (i + 1)
    end
  in
  go s 0

let fold f s init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) s;
  !acc

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

let full n =
  assert (n >= 0 && n < 62);
  (1 lsl n) - 1

let below i =
  assert (i >= 0 && i < 62);
  (1 lsl i) - 1

(* Standard sub-mask enumeration: visits every non-empty submask of [s]. *)
let iter_subsets s f =
  if s <> 0 then begin
    let sub = ref s in
    let continue = ref true in
    while !continue do
      f !sub;
      sub := (!sub - 1) land s;
      if !sub = 0 then continue := false
    done
  end

let pp fmt s =
  Format.fprintf fmt "{%s}"
    (String.concat "," (List.map string_of_int (to_list s)))
