(* One sorted copy of the non-NULL cells gives every statistic: its runs
   are the distinct values and their counts (for [n_distinct] and the MCV
   list), its ends are min and max, and it is the histogram's input. *)
let column ?(buckets = 100) ?(mcv_slots = 100) tbl c =
  let n = Table.nrows tbl in
  match Table.column tbl c with
  | Column.Ints cells ->
    let n_non_null =
      Array.fold_left
        (fun acc v -> if v <> Column.null_int then acc + 1 else acc)
        0 cells
    in
    let sorted = Array.make n_non_null 0 in
    let j = ref 0 in
    Array.iter
      (fun v ->
        if v <> Column.null_int then begin
          sorted.(!j) <- v;
          incr j
        end)
      cells;
    Array.sort Int.compare sorted;
    let starts = Mcv.run_starts Int.equal sorted in
    {
      Col_stats.row_count = n;
      null_frac =
        (if n = 0 then 0.0
         else float_of_int (n - n_non_null) /. float_of_int n);
      n_distinct = Int.max 1 (Array.length starts);
      min_val = (if n_non_null = 0 then None else Some sorted.(0));
      max_val =
        (if n_non_null = 0 then None else Some sorted.(n_non_null - 1));
      mcv =
        Mcv.of_runs ~slots:mcv_slots ~n:n_non_null
          ~value:(fun i -> Value.Int sorted.(i))
          starts;
      hist = Histogram.of_sorted ~buckets sorted;
    }
  | Column.Strs cells ->
    let sorted = Array.copy cells in
    Array.sort String.compare sorted;
    let starts = Mcv.run_starts String.equal sorted in
    {
      Col_stats.row_count = n;
      null_frac = 0.0;
      n_distinct = Int.max 1 (Array.length starts);
      min_val = None;
      max_val = None;
      mcv =
        Mcv.of_runs ~slots:mcv_slots ~n
          ~value:(fun i -> Value.Str sorted.(i))
          starts;
      hist = None;
    }

let table ?buckets ?mcv_slots tbl =
  Array.init (Schema.arity (Table.schema tbl)) (fun c ->
      column ?buckets ?mcv_slots tbl c)

let all ?buckets ?mcv_slots catalog store =
  List.iter
    (fun tbl ->
      Db_stats.set store ~table:(Table.name tbl) (table ?buckets ?mcv_slots tbl))
    (Catalog.tables catalog)
