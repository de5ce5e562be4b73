type t = {
  entries : (Value.t * float) list;
  by_value : (Value.t, float) Hashtbl.t;
  total : float;
  complete : bool;
}

let empty =
  { entries = []; by_value = Hashtbl.create 1; total = 0.0; complete = false }

let of_counts ?(slots = 100) ~n counts =
  if n = 0 then empty
  else begin
    (* The first [slots] entries by (count desc, value asc), kept sorted
       by insertion; the [j] entries before [e] fill [min j slots]. Most
       entries lose to the last kept one on count alone. *)
    let before (v1, c1) (v2, c2) =
      c1 > c2 || (c1 = c2 && Value.compare v1 v2 < 0)
    in
    let top = Array.make slots (Value.Null, 0) in
    List.iteri
      (fun j e ->
        if slots > 0 && (j < slots || before e top.(slots - 1)) then begin
          let i = ref (Int.min j (slots - 1)) in
          while !i > 0 && before e top.(!i - 1) do
            top.(!i) <- top.(!i - 1);
            decr i
          done;
          top.(!i) <- e
        end)
      counts;
    let k = List.length counts and nf = float_of_int n in
    let entries =
      List.init (Int.min slots k) (fun i ->
          let v, c = top.(i) in
          (v, float_of_int c /. nf))
    in
    let by_value = Hashtbl.create (List.length entries) in
    List.iter (fun (v, f) -> Hashtbl.replace by_value v f) entries;
    let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 entries in
    { entries; by_value; total; complete = k < slots }
  end

let build ?slots values =
  let counts = Hashtbl.create 64 and n = ref 0 in
  List.iter
    (fun v ->
      if not (Value.is_null v) then begin
        incr n;
        Hashtbl.replace counts v
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
      end)
    values;
  of_counts ?slots ~n:!n
    (Hashtbl.fold (fun v c acc -> if c >= 2 then (v, c) :: acc else acc)
       counts [])

let entries t = t.entries
let frequency t v = Hashtbl.find_opt t.by_value v
let total_fraction t = t.total
let count t = List.length t.entries
let complete t = t.complete
