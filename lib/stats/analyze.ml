(* No comparison sort of a whole column. An int column's non-NULL cells
   are radix-sorted once: the sorted copy's runs are the distinct values
   and their counts (for [n_distinct] and the MCV list), its ends are min
   and max, and it is the histogram's input. A string column has no
   histogram, so its values are only counted, in one hash table. *)

(* [v]'s [p]-th 8-bit digit, offset into the [p]-th of 8 blocks of 256
   counts. The sign bit is flipped, so unsigned digit order is signed. *)
let slot p v = (p lsl 8) lor (((v lxor min_int) lsr (p * 8)) land 255)

(* LSD radix sort of [a], which it overwrites; returns the sorted array.
   A pass whose digit is the same in every key would move nothing. *)
let radix_sort a =
  let n = Array.length a and counts = Array.make 2048 0 in
  Array.iter
    (fun v ->
      for p = 0 to 7 do
        let i = slot p v in
        counts.(i) <- counts.(i) + 1
      done)
    a;
  let src = ref a and dst = ref (Array.make n 0) in
  for p = 0 to 7 do
    if n > 0 && counts.(slot p !src.(0)) < n then begin
      let pos = ref 0 in
      for i = p lsl 8 to (p lsl 8) + 255 do
        let c = counts.(i) in
        counts.(i) <- !pos;
        pos := !pos + c
      done;
      Array.iter
        (fun v ->
          let i = slot p v in
          !dst.(counts.(i)) <- v;
          counts.(i) <- counts.(i) + 1)
        !src;
      let s = !src in
      src := !dst;
      dst := s
    end
  done;
  !src

module Str_tbl = Hashtbl.Make (String)

let column ?(buckets = 100) ?(mcv_slots = 100) tbl c =
  let n = Table.nrows tbl in
  match Table.column tbl c with
  | Column.Ints cells ->
    let n_non_null =
      Array.fold_left
        (fun acc v -> if v <> Column.null_int then acc + 1 else acc)
        0 cells
    in
    let non_null = Array.make n_non_null 0 in
    let j = ref 0 in
    Array.iter
      (fun v ->
        if v <> Column.null_int then begin
          non_null.(!j) <- v;
          incr j
        end)
      cells;
    let sorted = radix_sort non_null in
    (* Walked from the top, so [frequent] is ascending (see Mcv). *)
    let runs = ref 0 and frequent = ref [] and stop = ref n_non_null in
    for i = n_non_null - 1 downto 0 do
      if i = 0 || sorted.(i) <> sorted.(i - 1) then begin
        incr runs;
        if !stop - i >= 2 then
          frequent := (Value.Int sorted.(i), !stop - i) :: !frequent;
        stop := i
      end
    done;
    {
      Col_stats.row_count = n;
      null_frac =
        (if n = 0 then 0.0
         else float_of_int (n - n_non_null) /. float_of_int n);
      n_distinct = Int.max 1 !runs;
      min_val = (if n_non_null = 0 then None else Some sorted.(0));
      max_val =
        (if n_non_null = 0 then None else Some sorted.(n_non_null - 1));
      mcv = Mcv.of_counts ~slots:mcv_slots ~n:n_non_null !frequent;
      hist = Histogram.of_sorted ~buckets sorted;
    }
  | Column.Strs cells ->
    let counts = Str_tbl.create 1024 in
    Array.iter
      (fun s ->
        match Str_tbl.find_opt counts s with
        | Some r -> incr r
        | None -> Str_tbl.add counts s (ref 1))
      cells;
    {
      Col_stats.row_count = n;
      null_frac = 0.0;
      n_distinct = Int.max 1 (Str_tbl.length counts);
      min_val = None;
      max_val = None;
      mcv =
        Mcv.of_counts ~slots:mcv_slots ~n
          (Str_tbl.fold
             (fun s r acc -> if !r >= 2 then (Value.Str s, !r) :: acc else acc)
             counts []);
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
