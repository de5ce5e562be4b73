module Histogram = Rdb_stats.Histogram
module Mcv = Rdb_stats.Mcv
module Col_stats = Rdb_stats.Col_stats
module Analyze = Rdb_stats.Analyze
module Db_stats = Rdb_stats.Db_stats

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---- Histogram ---- *)

let test_histogram_empty () =
  check Alcotest.bool "empty input" true (Histogram.build [||] = None)

let test_histogram_bounds_sorted () =
  let values = Array.init 1000 (fun i -> (i * 37) mod 500) in
  match Histogram.build ~buckets:50 values with
  | None -> Alcotest.fail "expected histogram"
  | Some h ->
    let b = Histogram.bounds h in
    for i = 1 to Array.length b - 1 do
      if b.(i) < b.(i - 1) then Alcotest.fail "bounds not sorted"
    done

let prop_fraction_le_bounds =
  QCheck.Test.make ~name:"fraction_le in [0,1]" ~count:300
    QCheck.(pair (array_of_size (Gen.int_range 1 200) (int_range (-1000) 1000)) int)
    (fun (values, v) ->
      match Histogram.build values with
      | None -> true
      | Some h ->
        let f = Histogram.fraction_le h v in
        f >= 0.0 && f <= 1.0)

let prop_fraction_le_monotone =
  QCheck.Test.make ~name:"fraction_le monotone" ~count:300
    QCheck.(
      triple
        (array_of_size (Gen.int_range 1 200) (int_range (-1000) 1000))
        (int_range (-1100) 1100) (int_range 0 50))
    (fun (values, v, delta) ->
      match Histogram.build values with
      | None -> true
      | Some h -> Histogram.fraction_le h v <= Histogram.fraction_le h (v + delta))

let test_histogram_accuracy_uniform () =
  (* On uniform data with full-resolution buckets, range estimates should be
     near exact. *)
  let values = Array.init 10000 (fun i -> i mod 1000) in
  match Histogram.build ~buckets:100 values with
  | None -> Alcotest.fail "expected histogram"
  | Some h ->
    let est = Histogram.fraction_between h ~lo:0 ~hi:499 in
    check Alcotest.bool "within 5% of 0.5" true (Float.abs (est -. 0.5) < 0.05)

let test_histogram_extremes () =
  let values = [| 10; 20; 30 |] in
  match Histogram.build values with
  | None -> Alcotest.fail "expected histogram"
  | Some h ->
    check (Alcotest.float 1e-9) "below min" 0.0 (Histogram.fraction_le h 5);
    check (Alcotest.float 1e-9) "above max" 1.0 (Histogram.fraction_le h 100)

let prop_between_subadditive =
  QCheck.Test.make ~name:"fraction_between splits" ~count:200
    QCheck.(array_of_size (Gen.int_range 2 100) (int_range 0 100))
    (fun values ->
      match Histogram.build values with
      | None -> true
      | Some h ->
        let whole = Histogram.fraction_between h ~lo:0 ~hi:100 in
        let a = Histogram.fraction_between h ~lo:0 ~hi:50 in
        let b = Histogram.fraction_between h ~lo:51 ~hi:100 in
        Float.abs (whole -. (a +. b)) < 1e-6)

(* ---- Mcv ---- *)

let test_mcv_frequencies () =
  let values =
    List.concat
      [
        List.init 50 (fun _ -> Value.Str "hot");
        List.init 30 (fun _ -> Value.Str "warm");
        List.init 20 (fun i -> Value.Str (Printf.sprintf "cold%d" i));
      ]
  in
  let mcv = Mcv.build ~slots:5 values in
  check (Alcotest.float 1e-9) "hot freq" 0.5
    (Option.value ~default:0.0 (Mcv.frequency mcv (Value.Str "hot")));
  check (Alcotest.float 1e-9) "warm freq" 0.3
    (Option.value ~default:0.0 (Mcv.frequency mcv (Value.Str "warm")));
  (* singletons (appearing once) never make the list *)
  check (Alcotest.option (Alcotest.float 1e-9)) "cold absent" None
    (Mcv.frequency mcv (Value.Str "cold3"))

let test_mcv_total_le_one () =
  let values = List.init 100 (fun i -> Value.Int (i mod 7)) in
  let mcv = Mcv.build values in
  check Alcotest.bool "total <= 1" true (Mcv.total_fraction mcv <= 1.0 +. 1e-9)

let test_mcv_ignores_null () =
  let values = [ Value.Null; Value.Null; Value.Int 1; Value.Int 1 ] in
  let mcv = Mcv.build values in
  check (Alcotest.option (Alcotest.float 1e-9)) "null not counted" None
    (Mcv.frequency mcv Value.Null);
  (* frequency of 1 is relative to non-null count *)
  check (Alcotest.float 1e-9) "freq of 1" 1.0
    (Option.value ~default:0.0 (Mcv.frequency mcv (Value.Int 1)))

(* A list is complete only when it kept fewer entries than its slots, so
   it provably holds every value occurring twice or more. *)
let test_mcv_complete () =
  let ints l = List.map (fun i -> Value.Int i) l in
  let three_pairs = ints [ 1; 1; 2; 2; 3; 3; 4 ] in
  let complete slots vs = Mcv.complete (Mcv.build ~slots vs) in
  check Alcotest.bool "a free slot: complete" true (complete 4 three_pairs);
  check Alcotest.bool "every slot used: truncated" false (complete 3 three_pairs);
  check Alcotest.bool "no slots: truncated" false (complete 0 three_pairs);
  check Alcotest.bool "no repeats: complete" true (complete 3 (ints [ 1; 2 ]));
  check Alcotest.bool "empty: not complete" false (Mcv.complete Mcv.empty)

let prop_mcv_sorted_desc =
  QCheck.Test.make ~name:"mcv entries sorted by frequency" ~count:200
    QCheck.(list (int_range 0 10))
    (fun ints ->
      let mcv = Mcv.build (List.map (fun i -> Value.Int i) ints) in
      let rec sorted = function
        | (_, f1) :: ((_, f2) :: _ as rest) -> f1 >= f2 && sorted rest
        | _ -> true
      in
      sorted (Mcv.entries mcv))

(* ---- Analyze ---- *)

let mk_table () =
  let schema =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.Ty_int };
        { Schema.name = "grp"; ty = Value.Ty_int };
        { Schema.name = "label"; ty = Value.Ty_str };
      ]
  in
  let n = 1000 in
  Table.create ~name:"facts" ~schema
    [|
      Column.Ints (Array.init n Fun.id);
      Column.Ints (Array.init n (fun i -> if i mod 10 = 0 then Column.null_int else i mod 5));
      Column.Strs (Array.init n (fun i -> if i mod 2 = 0 then "even" else "odd"));
    |]

let test_analyze_id_column () =
  let s = Analyze.column (mk_table ()) 0 in
  check Alcotest.int "rows" 1000 s.Col_stats.row_count;
  check Alcotest.int "distinct" 1000 s.Col_stats.n_distinct;
  check (Alcotest.float 1e-9) "no nulls" 0.0 s.Col_stats.null_frac;
  check (Alcotest.option Alcotest.int) "min" (Some 0) s.Col_stats.min_val;
  check (Alcotest.option Alcotest.int) "max" (Some 999) s.Col_stats.max_val

let test_analyze_group_column () =
  let s = Analyze.column (mk_table ()) 1 in
  check Alcotest.int "distinct groups" 5 s.Col_stats.n_distinct;
  check (Alcotest.float 1e-3) "null fraction" 0.1 s.Col_stats.null_frac

let test_analyze_string_column () =
  let s = Analyze.column (mk_table ()) 2 in
  check Alcotest.int "distinct labels" 2 s.Col_stats.n_distinct;
  check (Alcotest.float 1e-9) "even freq" 0.5
    (Option.value ~default:0.0 (Mcv.frequency s.Col_stats.mcv (Value.Str "even")))

let test_db_stats_roundtrip () =
  let t = mk_table () in
  let cat = Catalog.create () in
  Catalog.add_table cat t;
  let store = Db_stats.create () in
  Analyze.all cat store;
  check Alcotest.bool "stats present" true (Db_stats.get store ~table:"facts" <> None);
  (match Db_stats.col store ~table:"facts" ~col:0 with
   | Some s -> check Alcotest.int "rows via store" 1000 s.Col_stats.row_count
   | None -> Alcotest.fail "missing col stats");
  Db_stats.drop store ~table:"facts";
  check Alcotest.bool "dropped" true (Db_stats.get store ~table:"facts" = None)

let test_trivial_stats () =
  let t = mk_table () in
  let store = Db_stats.create () in
  let s = Db_stats.col_or_trivial store t 0 in
  check Alcotest.int "trivial row count" 1000 s.Col_stats.row_count


(* ---- ANALYZE equivalence with the boxed reference ---- *)

(* The ANALYZE that boxed every cell into a [Value.t], counted distinct
   values through polymorphic hash tables and sorted a second copy for the
   histogram, kept verbatim as the reference: the sort-once [Analyze.column]
   must reproduce every field bit for bit. Mcv.t and Histogram.t are
   abstract, so the reference returns their observable content. *)
type ref_stats = {
  r_rows : int;
  r_null_frac : float;
  r_distinct : int;
  r_min : int option;
  r_max : int option;
  r_mcv : (Value.t * float) list;
  r_mcv_total : float;
  r_hist : int array option;
}

let ref_mcv ~slots values =
  let non_null = List.filter (fun v -> not (Value.is_null v)) values in
  let n = List.length non_null in
  if n = 0 then ([], 0.0)
  else begin
    let counts = Hashtbl.create 256 in
    List.iter
      (fun v ->
        Hashtbl.replace counts v
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
      non_null;
    let all = Hashtbl.fold (fun v c acc -> (v, c) :: acc) counts [] in
    let frequent = List.filter (fun (_, c) -> c >= 2) all in
    let sorted =
      List.sort
        (fun (v1, c1) (v2, c2) ->
          match Int.compare c2 c1 with 0 -> Value.compare v1 v2 | d -> d)
        frequent
    in
    let top = List.filteri (fun i _ -> i < slots) sorted in
    let nf = float_of_int n in
    let entries = List.map (fun (v, c) -> (v, float_of_int c /. nf)) top in
    (entries, List.fold_left (fun acc (_, f) -> acc +. f) 0.0 entries)
  end

let ref_hist ~buckets values =
  let n = Array.length values in
  if n = 0 then None
  else begin
    let sorted = Array.copy values in
    Array.sort Int.compare sorted;
    let nb = Int.min buckets n in
    Some (Array.init (nb + 1) (fun i -> sorted.(i * (n - 1) / nb)))
  end

let ref_column ~buckets ~mcv_slots tbl c =
  let n = Table.nrows tbl in
  match Table.column tbl c with
  | Column.Ints cells ->
    let non_null =
      List.filter (fun v -> v <> Column.null_int) (Array.to_list cells)
    in
    let non_null_arr = Array.of_list non_null in
    let n_non_null = Array.length non_null_arr in
    let distinct = Hashtbl.create 1024 in
    Array.iter (fun v -> Hashtbl.replace distinct v ()) non_null_arr;
    let min_val = ref None and max_val = ref None in
    Array.iter
      (fun v ->
        (match !min_val with Some m when m <= v -> () | _ -> min_val := Some v);
        (match !max_val with Some m when m >= v -> () | _ -> max_val := Some v))
      non_null_arr;
    let mcv, total =
      ref_mcv ~slots:mcv_slots (List.map (fun v -> Value.Int v) non_null)
    in
    {
      r_rows = n;
      r_null_frac =
        (if n = 0 then 0.0
         else float_of_int (n - n_non_null) /. float_of_int n);
      r_distinct = Int.max 1 (Hashtbl.length distinct);
      r_min = !min_val;
      r_max = !max_val;
      r_mcv = mcv;
      r_mcv_total = total;
      r_hist = ref_hist ~buckets non_null_arr;
    }
  | Column.Strs cells ->
    let distinct = Hashtbl.create 1024 in
    Array.iter (fun v -> Hashtbl.replace distinct v ()) cells;
    let mcv, total =
      ref_mcv ~slots:mcv_slots
        (Array.to_list (Array.map (fun s -> Value.Str s) cells))
    in
    {
      r_rows = n;
      r_null_frac = 0.0;
      r_distinct = Int.max 1 (Hashtbl.length distinct);
      r_min = None;
      r_max = None;
      r_mcv = mcv;
      r_mcv_total = total;
      r_hist = None;
    }

let same_stats (r : ref_stats) (s : Col_stats.t) =
  r.r_rows = s.Col_stats.row_count
  && Float.equal r.r_null_frac s.Col_stats.null_frac
  && r.r_distinct = s.Col_stats.n_distinct
  && r.r_min = s.Col_stats.min_val
  && r.r_max = s.Col_stats.max_val
  && List.equal
       (fun (v1, f1) (v2, f2) -> Value.equal v1 v2 && Float.equal f1 f2)
       r.r_mcv (Mcv.entries s.Col_stats.mcv)
  && Float.equal r.r_mcv_total (Mcv.total_fraction s.Col_stats.mcv)
  && Mcv.count s.Col_stats.mcv = List.length r.r_mcv
  && Option.equal ( = ) r.r_hist (Option.map Histogram.bounds s.Col_stats.hist)

(* An int column (NULLs, duplicates, negatives, the extremes [max_int] and
   [min_int + 1] beside [-1] and [0], so the sign flip and the top radix
   digit are exercised; sometimes all NULL) beside a string column over an
   alphabet of 3 or 26 letters, so duplicates, unique values and ties at
   the MCV cut-off all occur; empty tables included. *)
let gen_table sizes =
  QCheck.Gen.(
    let* n = sizes in
    let* span = oneofl [ 3; 20; 1000; max_int / 4; max_int ] in
    let* null_pct = oneofl [ 0; 10; 50; 100 ] in
    let* extreme_pct = oneofl [ 0; 5; 50 ] in
    let int_cell =
      let* r = int_range 0 99 in
      if r < null_pct then return Column.null_int
      else if r < null_pct + extreme_pct then
        oneofl [ max_int; min_int + 1; -1; 0 ]
      else int_range (-span) span
    in
    let* ints = array_size (return n) int_cell in
    let* last, len = oneofl [ ('c', 2); ('z', 1); ('z', 3) ] in
    let* strs =
      array_size (return n)
        (string_size ~gen:(char_range 'a' last) (int_range 0 len))
    in
    let* buckets = int_range 1 120 in
    let* mcv_slots = int_range 1 12 in
    return (ints, strs, buckets, mcv_slots))

let analyze_matches_reference (ints, strs, buckets, mcv_slots) =
  let tbl =
    Table.create ~name:"q"
      ~schema:
        (Schema.make
           [
             { Schema.name = "i"; ty = Value.Ty_int };
             { Schema.name = "s"; ty = Value.Ty_str };
           ])
      [| Column.Ints ints; Column.Strs strs |]
  in
  List.for_all
    (fun c ->
      same_stats
        (ref_column ~buckets ~mcv_slots tbl c)
        (Analyze.column ~buckets ~mcv_slots tbl c))
    [ 0; 1 ]

(* Mostly small tables, some above 256 rows (more than one value per
   radix digit), and a few above 65,536 rows in a property of their own,
   so tier-1 stays fast. *)
let prop_analyze_matches_reference =
  QCheck.Test.make ~name:"analyze = boxed reference, bit for bit" ~count:500
    (QCheck.make
       (gen_table
          QCheck.Gen.(
            oneof
              [
                return 0; int_range 1 8; int_range 1 400; int_range 257 3000;
              ])))
    analyze_matches_reference

let prop_analyze_matches_reference_large =
  QCheck.Test.make ~name:"analyze = boxed reference, large tables" ~count:3
    (QCheck.make (gen_table (QCheck.Gen.int_range 65_537 70_000)))
    analyze_matches_reference

let test_analyze_matches_reference_on_facts () =
  let tbl = mk_table () in
  List.iter
    (fun c ->
      check Alcotest.bool
        (Printf.sprintf "column %d" c)
        true
        (same_stats
           (ref_column ~buckets:100 ~mcv_slots:100 tbl c)
           (Analyze.column tbl c)))
    [ 0; 1; 2 ]

(* Real data: every base table of the scale-0.02 IMDB catalog, and every
   temp table a threshold-2 and a threshold-32 re-optimization pass over
   the JOB queries leaves behind. *)
let test_analyze_matches_reference_on_imdb () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~scale:0.02 () in
  let session = Rdb_core.Session.create catalog in
  Rdb_core.Session.analyze session;
  List.iter
    (fun threshold ->
      List.iter
        (fun q ->
          ignore
            (Rdb_core.Reopt.run ~cleanup:false session
               ~trigger:(Rdb_core.Trigger.create threshold)
               ~mode:Rdb_card.Estimator.Default q))
        (Rdb_imdb.Job_queries.all catalog))
    [ 2.0; 32.0 ];
  let tables = Catalog.tables catalog in
  check Alcotest.bool "temp tables left" true
    (List.length tables > List.length Rdb_imdb.Imdb_schema.tables);
  List.iter
    (fun tbl ->
      for c = 0 to Schema.arity (Table.schema tbl) - 1 do
        check Alcotest.bool
          (Printf.sprintf "%s column %d" (Table.name tbl) c)
          true
          (same_stats
             (ref_column ~buckets:100 ~mcv_slots:100 tbl c)
             (Analyze.column tbl c))
      done)
    tables

(* ---- Group_stats + Cords ---- *)

let correlated_table () =
  let n = 5000 in
  let a = Array.init n (fun i -> i mod 10) in
  let b = Array.map (fun v -> v / 2) a in  (* functional dependency a -> b *)
  Table.create ~name:"corr"
    ~schema:
      (Schema.make
         [
           { Schema.name = "a"; ty = Value.Ty_int };
           { Schema.name = "b"; ty = Value.Ty_int };
         ])
    [| Column.Ints a; Column.Ints b |]

let independent_table () =
  let n = 5000 in
  Table.create ~name:"indep"
    ~schema:
      (Schema.make
         [
           { Schema.name = "a"; ty = Value.Ty_int };
           { Schema.name = "b"; ty = Value.Ty_int };
         ])
    [| Column.Ints (Array.init n (fun i -> i mod 10));
       Column.Ints (Array.init n (fun i -> (i / 10) mod 7)) |]

let test_group_stats_joint () =
  let t = correlated_table () in
  let g = Rdb_stats.Group_stats.build t 0 1 in
  check Alcotest.int "10 distinct pairs" 10 (Rdb_stats.Group_stats.n_distinct_pairs g);
  (* P(a = 4 and b = 2) = 1/10 exactly *)
  let sel =
    Rdb_stats.Group_stats.joint_selectivity g
      (Value.equal (Value.Int 4))
      (Value.equal (Value.Int 2))
      ~independent:(0.1 *. 0.2)
  in
  check (Alcotest.float 1e-6) "joint exact" 0.1 sel;
  (* contradiction: a = 4 and b = 0 never co-occur *)
  let zero =
    Rdb_stats.Group_stats.joint_selectivity g
      (Value.equal (Value.Int 4))
      (Value.equal (Value.Int 0))
      ~independent:(0.1 *. 0.2)
  in
  check Alcotest.bool "contradiction near zero" true (zero < 0.01)

let test_group_stats_canonical_order () =
  let t = correlated_table () in
  let g = Rdb_stats.Group_stats.build t 1 0 in
  check (Alcotest.pair Alcotest.int Alcotest.int) "normalized" (0, 1)
    (Rdb_stats.Group_stats.cols g)

let test_cords_detects_fd () =
  let s = Rdb_stats.Cords.correlation_strength (correlated_table ()) 0 1 in
  check Alcotest.bool "fd is strong" true (s > 0.5)

let test_cords_independent_weak () =
  let s = Rdb_stats.Cords.correlation_strength (independent_table ()) 0 1 in
  check Alcotest.bool "independent is weak" true (s < 0.05)

let test_cords_discover () =
  let findings = Rdb_stats.Cords.discover ~threshold:0.5 (correlated_table ()) in
  check Alcotest.int "one pair" 1 (List.length findings)

let test_db_stats_groups () =
  let t = correlated_table () in
  let store = Db_stats.create () in
  Db_stats.set_group store ~table:"corr" (Rdb_stats.Group_stats.build t 0 1);
  check Alcotest.bool "lookup (0,1)" true
    (Db_stats.group store ~table:"corr" ~cols:(0, 1) <> None);
  check Alcotest.bool "lookup flipped" true
    (Db_stats.group store ~table:"corr" ~cols:(1, 0) <> None);
  check Alcotest.int "groups_of" 1 (List.length (Db_stats.groups_of store ~table:"corr"));
  Db_stats.drop store ~table:"corr";
  check Alcotest.bool "dropped with table" true
    (Db_stats.group store ~table:"corr" ~cols:(0, 1) = None)

let () =
  Alcotest.run "rdb_stats"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "bounds sorted" `Quick test_histogram_bounds_sorted;
          Alcotest.test_case "uniform accuracy" `Quick test_histogram_accuracy_uniform;
          Alcotest.test_case "extremes" `Quick test_histogram_extremes;
          qtest prop_fraction_le_bounds;
          qtest prop_fraction_le_monotone;
          qtest prop_between_subadditive;
        ] );
      ( "mcv",
        [
          Alcotest.test_case "frequencies" `Quick test_mcv_frequencies;
          Alcotest.test_case "total <= 1" `Quick test_mcv_total_le_one;
          Alcotest.test_case "ignores null" `Quick test_mcv_ignores_null;
          Alcotest.test_case "complete" `Quick test_mcv_complete;
          qtest prop_mcv_sorted_desc;
        ] );
      ( "group_stats",
        [
          Alcotest.test_case "joint selectivity" `Quick test_group_stats_joint;
          Alcotest.test_case "canonical order" `Quick test_group_stats_canonical_order;
          Alcotest.test_case "db_stats groups" `Quick test_db_stats_groups;
        ] );
      ( "cords",
        [
          Alcotest.test_case "detects FD" `Quick test_cords_detects_fd;
          Alcotest.test_case "independent weak" `Quick test_cords_independent_weak;
          Alcotest.test_case "discover" `Quick test_cords_discover;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "id column" `Quick test_analyze_id_column;
          Alcotest.test_case "group column" `Quick test_analyze_group_column;
          Alcotest.test_case "string column" `Quick test_analyze_string_column;
          Alcotest.test_case "db stats roundtrip" `Quick test_db_stats_roundtrip;
          Alcotest.test_case "trivial fallback" `Quick test_trivial_stats;
          Alcotest.test_case "reference on facts" `Quick
            test_analyze_matches_reference_on_facts;
          qtest prop_analyze_matches_reference;
          qtest prop_analyze_matches_reference_large;
          Alcotest.test_case "reference on IMDB and temp tables" `Quick
            test_analyze_matches_reference_on_imdb;
        ] );
    ]
