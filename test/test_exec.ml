module Relset = Rdb_util.Relset
module Query = Rdb_query.Query
module Predicate = Rdb_query.Predicate
module Plan = Rdb_plan.Plan
module Executor = Rdb_exec.Executor

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* A two-table playground: left(id, k) and right(id, k), joined on k, with
   plans constructed by hand so each join algorithm is forced. *)

let db_of (left_cells : (int * int) list) (right_cells : (int * int) list) =
  let schema =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.Ty_int };
        { Schema.name = "k"; ty = Value.Ty_int };
      ]
  in
  let cat = Catalog.create () in
  let add name cells =
    Catalog.add_table cat
      (Table.create ~name ~schema
         [|
           Column.Ints (Array.of_list (List.map fst cells));
           Column.Ints (Array.of_list (List.map snd cells));
         |])
  in
  add "left" left_cells;
  add "right" right_cells;
  Catalog.add_index cat ~table:"right" ~col:1;
  cat

let join_query ?(preds = []) () =
  let colref rel col = { Query.rel; col } in
  {
    Query.name = "j";
    rels =
      [|
        { Query.alias = "l"; table = "left" };
        { Query.alias = "r"; table = "right" };
      |];
    preds;
    edges = [ { Query.l = colref 0 1; r = colref 1 1 } ];
    select = [ Query.Count_star; Query.Min_col (colref 0 0) ];
  }

let scan rel est =
  Plan.Scan { Plan.scan_rel = rel; access = Plan.Seq_scan; scan_est = est; scan_cost = 1.0 }

let join algo (q : Query.t) =
  Plan.Join
    {
      Plan.algo;
      outer = scan 0 1.0;
      inner = scan 1 1.0;
      join_est = 1.0;
      join_cost = 1.0;
      join_edges = q.Query.edges;
    }

let naive_join_count left_cells right_cells =
  List.fold_left
    (fun acc (_, lk) ->
      acc
      + List.length (List.filter (fun (_, rk) -> rk = lk && lk <> Column.null_int) right_cells))
    0 left_cells

let run_with algo left_cells right_cells =
  let cat = db_of left_cells right_cells in
  let q = join_query () in
  Executor.execute ~catalog:cat ~query:q (join algo q)

let cells_gen =
  QCheck.(
    pair
      (small_list (pair (int_range 0 100) (int_range 0 10)))
      (small_list (pair (int_range 0 100) (int_range 0 10))))

let prop_join_algorithms_agree =
  QCheck.Test.make ~name:"hash = NL = index-NL = naive count" ~count:300
    cells_gen (fun (l, r) ->
      let expected = naive_join_count l r in
      let rows algo = (run_with algo l r).Executor.out_rows in
      rows Plan.Hash_join = expected
      && rows Plan.Nested_loop = expected
      && rows (Plan.Index_nl { inner_col = 1 }) = expected)

let prop_join_null_keys_never_match =
  QCheck.Test.make ~name:"NULL keys never join" ~count:100
    QCheck.(small_list (int_range 0 5))
    (fun ks ->
      let l = List.mapi (fun i k -> (i, if k = 0 then Column.null_int else k)) ks in
      let r = [ (1, Column.null_int); (2, 1); (3, 2) ] in
      let expected = naive_join_count l r in
      List.for_all
        (fun algo -> (run_with algo l r).Executor.out_rows = expected)
        [ Plan.Hash_join; Plan.Nested_loop;
          Plan.Index_nl { inner_col = 1 } ])

let test_aggregates () =
  let l = [ (10, 1); (20, 1); (30, 2) ] in
  let r = [ (1, 1); (2, 9) ] in
  let res = run_with Plan.Hash_join l r in
  (match res.Executor.aggs with
   | [ Value.Int count; Value.Int min_id ] ->
     check Alcotest.int "count" 2 count;
     check Alcotest.int "min l.id among matches" 10 min_id
   | _ -> Alcotest.fail "unexpected aggregates");
  let empty = run_with Plan.Hash_join [ (1, 5) ] [ (1, 6) ] in
  (match empty.Executor.aggs with
   | [ Value.Int 0; Value.Null ] -> ()
   | _ -> Alcotest.fail "empty join aggregates")

let test_scan_predicates () =
  let cat = db_of [ (1, 1); (2, 2); (3, 1) ] [ (9, 1) ] in
  let q =
    join_query
      ~preds:
        [
          {
            Query.target = { Query.rel = 0; col = 0 };
            p = Predicate.Cmp (Predicate.Ge, Value.Int 2);
          };
        ]
      ()
  in
  let res = Executor.execute ~catalog:cat ~query:q (join Plan.Hash_join q) in
  check Alcotest.int "filtered join" 1 res.Executor.out_rows;
  (* Index NL filters each probed inner row by the inner relation's
     predicates, here on an int and a string column at once. *)
  let schema =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.Ty_int };
        { Schema.name = "k"; ty = Value.Ty_int };
        { Schema.name = "s"; ty = Value.Ty_str };
      ]
  in
  let cat = db_of (List.init 12 (fun i -> (i, i mod 4))) [] in
  Catalog.add_table cat
    (Table.create ~name:"named" ~schema
       [|
         Column.Ints (Array.init 30 Fun.id);
         Column.Ints (Array.init 30 (fun i -> if i mod 7 = 0 then Column.null_int else i mod 5));
         Column.Strs (Array.init 30 (fun i -> [| "ab"; "abc"; "b" |].(i mod 3)));
       |]);
  Catalog.add_index cat ~table:"named" ~col:1;
  let pred rel col p = { Query.target = { Query.rel; col }; p } in
  let q =
    {
      (join_query ()) with
      Query.rels =
        [| { Query.alias = "l"; table = "left" }; { Query.alias = "n"; table = "named" } |];
      preds =
        [
          pred 1 0 (Predicate.Cmp (Predicate.Ge, Value.Int 5));
          pred 1 2 (Predicate.Like (Predicate.Prefix "ab"));
          pred 0 0 (Predicate.Cmp (Predicate.Ne, Value.Int 3));
        ];
    }
  in
  let res =
    Executor.execute ~catalog:cat ~query:q (join (Plan.Index_nl { inner_col = 1 }) q)
  in
  check Alcotest.bool "index NL joined some rows" true (res.Executor.out_rows > 0);
  match Rdb_exec.Naive.agrees ~catalog:cat q res with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_index_scan_access () =
  let cat = db_of [ (1, 1) ] [ (1, 3); (2, 3); (3, 4) ] in
  let q =
    {
      (join_query ()) with
      Query.preds =
        [
          {
            Query.target = { Query.rel = 1; col = 1 };
            p = Predicate.Cmp (Predicate.Eq, Value.Int 3);
          };
        ];
    }
  in
  let plan =
    Plan.Scan
      {
        Plan.scan_rel = 1;
        access = Plan.Index_scan { col = 1; key = 3 };
        scan_est = 1.0;
        scan_cost = 1.0;
      }
  in
  (* single-relation "query" for the scan: use rel 1 only via a count *)
  let q1 =
    {
      q with
      Query.rels = [| { Query.alias = "r"; table = "right" } |];
      preds =
        [
          {
            Query.target = { Query.rel = 0; col = 1 };
            p = Predicate.Cmp (Predicate.Eq, Value.Int 3);
          };
        ];
      edges = [];
      select = [ Query.Count_star ];
    }
  in
  let plan =
    match plan with
    | Plan.Scan s -> Plan.Scan { s with Plan.scan_rel = 0 }
    | p -> p
  in
  let res = Executor.execute ~catalog:cat ~query:q1 plan in
  check Alcotest.int "index scan rows" 2 res.Executor.out_rows

let test_observations () =
  let l = [ (1, 1); (2, 1) ] and r = [ (1, 1) ] in
  let res = run_with Plan.Hash_join l r in
  check Alcotest.int "three observations" 3 (List.length res.Executor.observations);
  let join_obs =
    List.find
      (fun (o : Executor.node_obs) -> Relset.cardinal o.Executor.obs_set = 2)
      res.Executor.observations
  in
  check Alcotest.int "join actual" 2 join_obs.Executor.obs_actual

let test_work_budget () =
  let l = List.init 1000 (fun i -> (i, 1)) in
  let r = List.init 1000 (fun i -> (i, 1)) in
  let cat = db_of l r in
  let q = join_query () in
  (try
     ignore
       (Executor.execute ~work_budget:100 ~catalog:cat ~query:q
          (join Plan.Nested_loop q));
     Alcotest.fail "expected budget exhaustion"
   with Executor.Work_budget_exceeded { spent; _ } ->
     check Alcotest.bool "spent beyond budget" true (spent > 100));
  (* without budget it completes *)
  let res = Executor.execute ~catalog:cat ~query:q (join Plan.Hash_join q) in
  check Alcotest.int "million rows" 1_000_000 res.Executor.out_rows

let test_work_deterministic () =
  let l = List.init 100 (fun i -> (i, i mod 5)) in
  let r = List.init 50 (fun i -> (i, i mod 5)) in
  let w1 = (run_with Plan.Hash_join l r).Executor.work in
  let w2 = (run_with Plan.Hash_join l r).Executor.work in
  check Alcotest.int "work deterministic" w1 w2

let test_materialize () =
  let cat = db_of [ (1, 1); (2, 2) ] [ (7, 1); (8, 1) ] in
  let q = join_query () in
  let mat =
    Executor.materialize ~catalog:cat ~query:q
      ~cols:[ { Query.rel = 0; col = 0 }; { Query.rel = 1; col = 0 } ]
      (join Plan.Hash_join q)
  in
  check Alcotest.int "two rows" 2 (List.length mat.Executor.mat_rows);
  List.iter
    (fun row ->
      check Alcotest.int "width" 2 (Array.length row);
      check Alcotest.bool "l.id is 1" true (Value.equal row.(0) (Value.Int 1)))
    mat.Executor.mat_rows

let test_deadline_checked_early () =
  (* Regression: the wall-clock deadline used to be consulted only every
     4M work units, so an expired deadline let cheap-but-slow plans run
     on. The check now starts after ~1k units and backs off
     geometrically. *)
  let l = List.init 3_000 (fun i -> (i, 1)) in
  let r = List.init 3_000 (fun i -> (i, 2)) in
  let cat = db_of l r in
  let q = join_query () in
  (try
     (* an already-expired deadline: scanning 3k rows crosses the initial
        1k-unit stride, where the clock is read and the run aborts *)
     ignore
       (Executor.execute ~deadline_ms:0.0 ~catalog:cat ~query:q
          (join Plan.Hash_join q));
     Alcotest.fail "expected deadline abort"
   with Executor.Work_budget_exceeded { spent; _ } ->
     check Alcotest.bool "aborted long before 4M units" true (spent < 100_000));
  (* plans cheaper than the initial stride never reach a clock check *)
  let tiny = db_of [ (1, 1) ] [ (2, 1) ] in
  let res =
    Executor.execute ~deadline_ms:0.0 ~catalog:tiny ~query:q
      (join Plan.Hash_join q)
  in
  check Alcotest.int "tiny plan completes" 1 res.Executor.out_rows;
  (* and a generous deadline does not fire on the big join either *)
  let res =
    Executor.execute ~deadline_ms:60_000.0 ~catalog:cat ~query:q
      (join Plan.Hash_join q)
  in
  check Alcotest.int "generous deadline completes" 0 res.Executor.out_rows

let test_observations_complete_and_true () =
  (* every plan node reports exactly one observation, and each actual
     matches the brute-force oracle's count for the node's relation set *)
  let module Naive = Rdb_exec.Naive in
  let l = List.init 40 (fun i -> (i, i mod 7)) in
  let r = List.init 25 (fun i -> (i, i mod 5)) in
  let cat = db_of l r in
  let q = join_query () in
  let plan = join Plan.Hash_join q in
  let res = Executor.execute ~catalog:cat ~query:q plan in
  let rec node_sets acc = function
    | Plan.Scan _ as node -> Plan.rel_set node :: acc
    | Plan.Join j as node ->
      Plan.rel_set node :: node_sets (node_sets acc j.Plan.outer) j.Plan.inner
  in
  let sets = node_sets [] plan in
  check Alcotest.int "one observation per node" (List.length sets)
    (List.length res.Executor.observations);
  List.iter
    (fun set ->
      match
        List.filter
          (fun (o : Executor.node_obs) -> Relset.equal o.Executor.obs_set set)
          res.Executor.observations
      with
      | [ o ] ->
        check Alcotest.int
          (Printf.sprintf "actual of {%s} matches oracle"
             (String.concat "," (List.map string_of_int (Relset.to_list set))))
          (Naive.count ~catalog:cat q set)
          o.Executor.obs_actual
      | obs ->
        Alcotest.failf "expected exactly one observation, got %d"
          (List.length obs))
    sets;
  match Naive.agrees ~catalog:cat q res with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_adaptive_switch_observed () =
  (* outer blows through its estimate 8x -> nested loop demoted to hash
     join; the demotion increments [switches] and the observation carries
     the executed operator's name *)
  let l = List.init 100 (fun i -> (i, i mod 3)) in
  let r = List.init 100 (fun i -> (i, i mod 3)) in
  let cat = db_of l r in
  let q = join_query () in
  let plan = join Plan.Nested_loop q in
  (* the hand-built scans estimate 1.0 rows; the outer actually has 100 *)
  let adaptive = Executor.execute ~adaptive:true ~catalog:cat ~query:q plan in
  check Alcotest.int "one switch" 1 adaptive.Executor.switches;
  let join_label res =
    (List.find
       (fun (o : Executor.node_obs) -> Relset.cardinal o.Executor.obs_set = 2)
       res.Executor.observations)
      .Executor.obs_label
  in
  check Alcotest.string "demoted operator observed" "Hash Join"
    (join_label adaptive);
  let static = Executor.execute ~catalog:cat ~query:q plan in
  check Alcotest.int "no switch without --adaptive" 0 static.Executor.switches;
  check Alcotest.string "planned operator observed" "Nested Loop"
    (join_label static);
  check Alcotest.int "same result either way" adaptive.Executor.out_rows
    static.Executor.out_rows

(* Multi-edge join (composite key) correctness. *)
let test_multi_edge_join () =
  let schema =
    Schema.make
      [
        { Schema.name = "a"; ty = Value.Ty_int };
        { Schema.name = "b"; ty = Value.Ty_int };
      ]
  in
  let cat = Catalog.create () in
  let add name cells =
    Catalog.add_table cat
      (Table.create ~name ~schema
         [|
           Column.Ints (Array.of_list (List.map fst cells));
           Column.Ints (Array.of_list (List.map snd cells));
         |])
  in
  add "x" [ (1, 1); (1, 2); (2, 2) ];
  add "y" [ (1, 1); (1, 2); (2, 1) ];
  Catalog.add_index cat ~table:"y" ~col:0;
  let colref rel col = { Query.rel; col } in
  let q =
    {
      Query.name = "multi";
      rels =
        [| { Query.alias = "x"; table = "x" }; { Query.alias = "y"; table = "y" } |];
      preds = [];
      edges =
        [
          { Query.l = colref 0 0; r = colref 1 0 };
          { Query.l = colref 0 1; r = colref 1 1 };
        ];
      select = [ Query.Count_star ];
    }
  in
  let plan algo =
    Plan.Join
      {
        Plan.algo;
        outer = scan 0 1.0;
        inner = scan 1 1.0;
        join_est = 1.0;
        join_cost = 1.0;
        join_edges = q.Query.edges;
      }
  in
  let hash = Executor.execute ~catalog:cat ~query:q (plan Plan.Hash_join) in
  let nl = Executor.execute ~catalog:cat ~query:q (plan Plan.Nested_loop) in
  (* probes the index on y.a; y.b is checked as the extra edge *)
  let inl =
    Executor.execute ~catalog:cat ~query:q (plan (Plan.Index_nl { inner_col = 0 }))
  in
  (* matches: (1,1) and (1,2) *)
  check Alcotest.int "hash composite" 2 hash.Executor.out_rows;
  check Alcotest.int "nl composite" 2 nl.Executor.out_rows;
  check Alcotest.int "index NL composite" 2 inl.Executor.out_rows

let () =
  Alcotest.run "rdb_exec"
    [
      ( "joins",
        [
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "scan predicates" `Quick test_scan_predicates;
          Alcotest.test_case "index scan access" `Quick test_index_scan_access;
          Alcotest.test_case "multi-edge join" `Quick test_multi_edge_join;
          qtest prop_join_algorithms_agree;
          qtest prop_join_null_keys_never_match;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "observations" `Quick test_observations;
          Alcotest.test_case "observations complete + oracle-true" `Quick
            test_observations_complete_and_true;
          Alcotest.test_case "adaptive switch observed" `Quick
            test_adaptive_switch_observed;
          Alcotest.test_case "work budget" `Quick test_work_budget;
          Alcotest.test_case "deadline checked early" `Quick
            test_deadline_checked_early;
          Alcotest.test_case "work deterministic" `Quick test_work_deterministic;
          Alcotest.test_case "materialize" `Quick test_materialize;
        ] );
    ]
