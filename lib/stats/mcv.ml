type t = {
  entries : (Value.t * float) list;
  by_value : (Value.t, float) Hashtbl.t;
  total : float;
  complete : bool;
}

let empty =
  { entries = []; by_value = Hashtbl.create 1; total = 0.0; complete = false }

let run_starts equal sorted =
  let starts = Rdb_util.Int_vec.create () in
  Array.iteri
    (fun i v ->
      if i = 0 || not (equal v sorted.(i - 1)) then
        Rdb_util.Int_vec.push starts i)
    sorted;
  Rdb_util.Int_vec.to_array starts

let of_runs ?(slots = 100) ~n ~value starts =
  if n = 0 then empty
  else begin
    let runs = Array.length starts in
    let count r = (if r + 1 < runs then starts.(r + 1) else n) - starts.(r) in
    (* Runs come in ascending value order, so a stable sort on count alone
       breaks ties by value. *)
    let frequent =
      Array.of_seq (Seq.filter (fun r -> count r >= 2) (Seq.init runs Fun.id))
    in
    Array.stable_sort (fun a b -> Int.compare (count b) (count a)) frequent;
    let nf = float_of_int n in
    let entries =
      List.init (Int.min slots (Array.length frequent)) (fun i ->
          let r = frequent.(i) in
          (value starts.(r), float_of_int (count r) /. nf))
    in
    let by_value = Hashtbl.create (List.length entries) in
    List.iter (fun (v, f) -> Hashtbl.replace by_value v f) entries;
    let total = List.fold_left (fun acc (_, f) -> acc +. f) 0.0 entries in
    { entries; by_value; total; complete = Array.length frequent < slots }
  end

let build ?slots values =
  let sorted =
    Array.of_list (List.filter (fun v -> not (Value.is_null v)) values)
  in
  Array.sort Value.compare sorted;
  of_runs ?slots ~n:(Array.length sorted)
    ~value:(fun i -> sorted.(i))
    (run_starts Value.equal sorted)

let entries t = t.entries
let frequency t v = Hashtbl.find_opt t.by_value v
let total_fraction t = t.total
let count t = List.length t.entries
let complete t = t.complete
