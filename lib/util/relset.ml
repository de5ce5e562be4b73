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

(* Bit walks: [min_elt], [iter] and [fold] allocate nothing of their own. *)
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

let rec fold_from f s i acc =
  if s = 0 then acc
  else fold_from f (s lsr 1) (i + 1) (if s land 1 = 1 then f i acc else acc)

let fold f s init = fold_from f s 0 init

let to_list s = List.rev (fold (fun i acc -> i :: acc) s [])

let full n =
  assert (n >= 0 && n < 62);
  (1 lsl n) - 1

let below i =
  assert (i >= 0 && i < 62);
  (1 lsl i) - 1

(* Standard sub-mask enumeration: every non-empty submask of [s], from
   [s] itself down. *)
let next_subset s sub = (sub - 1) land s

let iter_subsets s f =
  let sub = ref s in
  while !sub <> 0 do
    f !sub;
    sub := next_subset s !sub
  done
