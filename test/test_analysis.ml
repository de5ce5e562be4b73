(* The static-analysis passes must catch each corrupted-artifact class with
   the right severity — and stay silent on every clean query and plan the
   pipeline actually produces. *)

module Relset = Rdb_util.Relset
module Query = Rdb_query.Query
module Predicate = Rdb_query.Predicate
module Estimator = Rdb_card.Estimator
module Plan = Rdb_plan.Plan
module Optimizer = Rdb_plan.Optimizer
module Session = Rdb_core.Session
module Reopt = Rdb_core.Reopt
module Trigger = Rdb_core.Trigger
module Finding = Rdb_analysis.Finding
module Query_lint = Rdb_analysis.Query_lint
module Plan_lint = Rdb_analysis.Plan_lint
module Checks = Rdb_core.Checks

let check = Alcotest.check

(* ---- fixtures ---- *)

let small_db () =
  let int name = { Schema.name; ty = Value.Ty_int } in
  let str name = { Schema.name; ty = Value.Ty_str } in
  let cat = Catalog.create () in
  let dim_n = 100 and fact_n = 2000 in
  Catalog.add_table cat
    (Table.create ~name:"dim"
       ~schema:(Schema.make [ int "id"; str "label" ])
       [|
         Column.Ints (Array.init dim_n (fun i -> i + 1));
         Column.Strs (Array.init dim_n (fun i -> Printf.sprintf "label%d" i));
       |]);
  Catalog.add_table cat
    (Table.create ~name:"fact"
       ~schema:(Schema.make [ int "id"; int "dim_id" ])
       [|
         Column.Ints (Array.init fact_n (fun i -> i + 1));
         Column.Ints (Array.init fact_n (fun i -> (i mod dim_n) + 1));
       |]);
  Catalog.add_index cat ~table:"dim" ~col:0;
  Catalog.add_index cat ~table:"fact" ~col:1;
  cat

let bind cat sql =
  match Rdb_sql.Binder.bind cat ~name:"q" (Rdb_sql.Parser.parse sql) with
  | Ok q -> q
  | Error e -> Alcotest.fail e

let join_sql = "SELECT COUNT(*) FROM dim AS d, fact AS f WHERE f.dim_id = d.id"

let plan_with_estimator cat q =
  let stats = Rdb_stats.Db_stats.create () in
  Rdb_stats.Analyze.all cat stats;
  let estimator =
    Estimator.create ~mode:Estimator.Default ~catalog:cat ~stats q
  in
  let plan, _ = Optimizer.plan ~catalog:cat ~estimator q in
  (plan, estimator)

let codes fs = List.sort_uniq compare (List.map (fun f -> f.Finding.code) fs)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub hay i nl = needle then true
    else scan (i + 1)
  in
  scan 0

let has_error code fs =
  List.exists (fun f -> f.Finding.code = code) (Finding.errors fs)

let has_warning code fs =
  List.exists
    (fun (f : Finding.t) ->
      f.Finding.code = code && f.Finding.severity = Finding.Warning)
    fs

(* A tiny IMDB instance shared by the workload-wide tests. *)
let imdb = lazy (Rdb_imdb.Imdb_gen.generate ~scale:0.02 ())

(* ---- Query_lint: clean inputs ---- *)

let test_job_queries_lint_clean () =
  let catalog = Lazy.force imdb in
  List.iter
    (fun (q : Query.t) ->
      let fs = Query_lint.check ~catalog q in
      check Alcotest.(list string) (q.Query.name ^ " clean") [] (codes fs))
    (Rdb_imdb.Job_queries.all catalog)

(* ---- Query_lint: corrupted queries ---- *)

let test_dangling_alias () =
  let cat = small_db () in
  let q = bind cat join_sql in
  let rels = Array.copy q.Query.rels in
  rels.(1) <- { (rels.(1)) with Query.table = "vanished" };
  let fs = Query_lint.check ~catalog:cat { q with Query.rels } in
  check Alcotest.bool "unknown-table error" true (has_error "unknown-table" fs)

let test_duplicate_alias () =
  let cat = small_db () in
  let q = bind cat join_sql in
  let rels = Array.copy q.Query.rels in
  rels.(1) <- { (rels.(1)) with Query.alias = q.Query.rels.(0).Query.alias };
  let fs = Query_lint.check ~catalog:cat { q with Query.rels } in
  check Alcotest.bool "duplicate-alias error" true
    (has_error "duplicate-alias" fs)

let test_predicate_column_out_of_range () =
  let cat = small_db () in
  let q = bind cat join_sql in
  let bad =
    { Query.target = { Query.rel = 0; col = 99 };
      p = Predicate.Cmp (Predicate.Eq, Value.Int 1) }
  in
  let fs = Query_lint.check ~catalog:cat { q with Query.preds = [ bad ] } in
  check Alcotest.bool "bad-colref error" true (has_error "bad-colref" fs)

let test_predicate_type_mismatch () =
  let cat = small_db () in
  let q = bind cat join_sql in
  (* d.id is an integer column; compare it with a string literal. *)
  let bad =
    { Query.target = { Query.rel = 0; col = 0 };
      p = Predicate.Cmp (Predicate.Eq, Value.Str "oops") }
  in
  let fs = Query_lint.check ~catalog:cat { q with Query.preds = [ bad ] } in
  check Alcotest.bool "predicate-type error" true
    (has_error "predicate-type" fs);
  (* ... and LIKE on the integer column. *)
  let bad_like =
    { Query.target = { Query.rel = 0; col = 0 };
      p = Predicate.Like (Predicate.Prefix "x") }
  in
  let fs =
    Query_lint.check ~catalog:cat { q with Query.preds = [ bad_like ] }
  in
  check Alcotest.bool "LIKE on int error" true (has_error "predicate-type" fs)

let test_disconnected_join_graph_named () =
  let cat = small_db () in
  let q = bind cat join_sql in
  let fs = Query_lint.check ~catalog:cat { q with Query.edges = [] } in
  (match Finding.by_code "disconnected-join-graph" (Finding.errors fs) with
   | [ f ] ->
     check Alcotest.bool "names both components" true
       (contains f.Finding.message ~needle:"{d}"
        && contains f.Finding.message ~needle:"{f}")
   | fs' ->
     Alcotest.failf "expected one disconnected finding, got %d"
       (List.length fs'))

let test_duplicate_and_contradictory_predicates () =
  let cat = small_db () in
  let q =
    bind cat (join_sql ^ " AND d.id = 1 AND d.id = 1")
  in
  let fs = Query_lint.check ~catalog:cat q in
  check Alcotest.bool "duplicate warning" true
    (has_warning "duplicate-predicate" fs);
  check Alcotest.bool "duplicates are not errors" false (Finding.has_errors fs);
  let q = bind cat (join_sql ^ " AND d.id = 1 AND d.id = 2") in
  let fs = Query_lint.check ~catalog:cat q in
  check Alcotest.bool "contradiction warning" true
    (has_warning "contradictory-predicates" fs);
  let q = bind cat (join_sql ^ " AND d.id BETWEEN 5 AND 3") in
  let fs = Query_lint.check ~catalog:cat q in
  check Alcotest.bool "empty range warning" true (has_warning "empty-range" fs);
  let q = bind cat (join_sql ^ " AND d.id BETWEEN 1 AND 4 AND d.id = 9") in
  let fs = Query_lint.check ~catalog:cat q in
  check Alcotest.bool "eq outside between warning" true
    (has_warning "contradictory-predicates" fs)

let test_duplicate_join_edge () =
  let cat = small_db () in
  let q = bind cat join_sql in
  let fs =
    Query_lint.check ~catalog:cat
      { q with Query.edges = q.Query.edges @ q.Query.edges }
  in
  check Alcotest.bool "duplicate edge warning" true
    (has_warning "duplicate-join-edge" fs)

(* ---- Plan_lint: clean plans ---- *)

let test_clean_plan_lints_clean () =
  let cat = small_db () in
  let q = bind cat (join_sql ^ " AND d.id = 7") in
  let plan, estimator = plan_with_estimator cat q in
  let fs = Plan_lint.check ~catalog:cat ~estimator q plan in
  check Alcotest.(list string) "no findings" [] (codes fs)

(* ---- Plan_lint: corrupted plans ---- *)

(* The optimizer's plan for dim ⋈ fact, pulled apart for corruption. *)
let join_fixture () =
  let cat = small_db () in
  let q = bind cat join_sql in
  let plan, estimator = plan_with_estimator cat q in
  match plan with
  | Plan.Join j -> (cat, q, estimator, j)
  | Plan.Scan _ -> Alcotest.fail "expected a join plan"

let test_swapped_subtree_relsets () =
  let cat, q, estimator, j = join_fixture () in
  (* Swap outer and inner without reorienting the edges: every edge now
     references columns on the wrong sides. *)
  let corrupted =
    Plan.Join { j with Plan.outer = j.Plan.inner; inner = j.Plan.outer }
  in
  let fs = Plan_lint.check ~catalog:cat ~estimator q corrupted in
  check Alcotest.bool "edge sides error" true
    (has_error "edge-outside-subtree" fs)

let test_dropped_join_edge () =
  let cat, q, estimator, j = join_fixture () in
  let corrupted = Plan.Join { j with Plan.join_edges = [] } in
  let fs = Plan_lint.check ~catalog:cat ~estimator q corrupted in
  check Alcotest.bool "missing edge error" true
    (has_error "missing-join-edge" fs)

let test_duplicated_relation_subtree () =
  let cat, q, estimator, j = join_fixture () in
  (* Replace the inner subtree with a copy of the outer: one relation now
     appears twice and the other not at all. *)
  let corrupted = Plan.Join { j with Plan.inner = j.Plan.outer } in
  let fs = Plan_lint.check ~catalog:cat ~estimator q corrupted in
  check Alcotest.bool "overlap error" true
    (has_error "overlapping-subtrees" fs);
  check Alcotest.bool "root coverage error" true (has_error "root-relset" fs)

let test_wrong_index_scan () =
  let cat, q, estimator, j = join_fixture () in
  (* fact(col0) has no index, and the query has no f.id = 5 predicate. *)
  let corrupt_scan (node : Plan.t) =
    match node with
    | Plan.Scan s when q.Query.rels.(s.Plan.scan_rel).Query.table = "fact" ->
      Plan.Scan { s with Plan.access = Plan.Index_scan { col = 0; key = 5 } }
    | other -> other
  in
  let corrupted =
    Plan.Join
      { j with
        Plan.outer = corrupt_scan j.Plan.outer;
        inner = corrupt_scan j.Plan.inner }
  in
  let fs = Plan_lint.check ~catalog:cat ~estimator q corrupted in
  check Alcotest.bool "no-such-index error" true (has_error "no-such-index" fs);
  check Alcotest.bool "key mismatch error" true
    (has_error "index-key-mismatch" fs)

let test_stale_index_key () =
  let cat = small_db () in
  let q = bind cat (join_sql ^ " AND d.id = 7") in
  let plan, estimator = plan_with_estimator cat q in
  (* The optimizer picks an index scan d.id = 7; corrupt the key to a value
     the query never asked for. *)
  let rec corrupt (node : Plan.t) =
    match node with
    | Plan.Scan ({ Plan.access = Plan.Index_scan is; _ } as s) ->
      Plan.Scan { s with Plan.access = Plan.Index_scan { is with key = 8 } }
    | Plan.Scan _ -> node
    | Plan.Join j ->
      Plan.Join
        { j with Plan.outer = corrupt j.Plan.outer; inner = corrupt j.Plan.inner }
  in
  let fs = Plan_lint.check ~catalog:cat ~estimator q (corrupt plan) in
  check Alcotest.bool "stale key caught" true
    (has_error "index-key-mismatch" fs)

let test_stale_estimate () =
  let cat, q, estimator, j = join_fixture () in
  let corrupted = Plan.Join { j with Plan.join_est = j.Plan.join_est *. 10.0 } in
  let fs = Plan_lint.check ~catalog:cat ~estimator q corrupted in
  check Alcotest.bool "stale estimate error" true
    (has_error "stale-estimate" fs);
  (* Without an estimator the freshness check is skipped. *)
  let fs = Plan_lint.check ~catalog:cat q corrupted in
  check Alcotest.bool "skipped without estimator" false
    (has_error "stale-estimate" fs)

let test_corrupted_costs () =
  let cat, q, estimator, j = join_fixture () in
  let fs =
    Plan_lint.check ~catalog:cat ~estimator q
      (Plan.Join { j with Plan.join_cost = Float.nan })
  in
  check Alcotest.bool "nan cost error" true (has_error "cost-not-finite" fs);
  let fs =
    Plan_lint.check ~catalog:cat ~estimator q
      (Plan.Join { j with Plan.join_cost = 0.0 })
  in
  check Alcotest.bool "non-monotone cost error" true
    (has_error "cost-not-monotone" fs)

(* ---- pipeline wiring ---- *)

let test_workload_plans_lint_clean () =
  let catalog = Lazy.force imdb in
  let session = Session.create catalog in
  Session.analyze session;
  List.iter
    (fun name ->
      let q = Rdb_imdb.Job_queries.find catalog name in
      let prepared = Session.prepare session q in
      let plan, _, estimator =
        Session.plan ~checks:[ Checks.Lint ] prepared ~mode:Estimator.Default
      in
      let fs = Plan_lint.check ~catalog ~estimator q plan in
      check Alcotest.(list string) (name ^ " plan clean") [] (codes fs))
    [ "1a"; "6d"; "16b"; "18a"; "25c"; "30a" ]

let test_debug_hook_raises_on_corruption () =
  let cat, q, estimator, j = join_fixture () in
  let corrupted = Plan.Join { j with Plan.join_edges = [] } in
  check Alcotest.bool "raises Check_failed (Lint, _)" true
    (match Checks.plan [ Checks.Lint ] ~catalog:cat ~estimator q corrupted with
     | () -> false
     | exception Checks.Check_failed (Checks.Lint, fs) -> Finding.has_errors fs)

let test_reopt_lints_clean () =
  let catalog = Lazy.force imdb in
  let session = Session.create catalog in
  Session.analyze session;
  let q = Rdb_imdb.Job_queries.find catalog "6d" in
  (* The Lint check runs on every plan and every rewritten query in the
     loop; reaching the outcome means the whole trajectory lints clean. *)
  let outcome =
    Reopt.run ~checks:[ Checks.Lint ] session ~trigger:(Trigger.create 2.0)
      ~mode:Estimator.Default q
  in
  check Alcotest.bool "re-optimized" true (List.length outcome.Reopt.steps >= 1)

(* The lint switch is now RDB_CHECKS=lint; the legacy RDB_LINT is no longer
   read. A join estimate pinned at infinity gives a non-finite cost that
   only the Lint check rejects, so whether Session.plan raises shows whether
   the environment switched the check on. *)
let test_rdb_lint_env_enables_hook () =
  let cat = small_db () in
  let q = bind cat join_sql in
  let session = Session.create cat in
  Session.analyze session;
  let prepared = Session.prepare session q in
  let pinned = Hashtbl.create 1 in
  Hashtbl.replace pinned (Relset.full 2) Float.infinity;
  let broken = Estimator.Feedback (Hashtbl.find_opt pinned) in
  let raises_lint () =
    match Session.plan prepared ~mode:broken with
    | _ -> false
    | exception Checks.Check_failed (Checks.Lint, fs) ->
      has_error "cost-not-finite" fs
  in
  let finally () = Unix.putenv "RDB_LINT" ""; Unix.putenv "RDB_CHECKS" "" in
  Fun.protect ~finally (fun () ->
      Unix.putenv "RDB_CHECKS" "";
      List.iter
        (fun v ->
          Unix.putenv "RDB_LINT" v;
          check Alcotest.bool
            (Printf.sprintf "RDB_LINT=%S is not read" v)
            false (raises_lint ()))
        [ "1"; "yes"; "true" ];
      List.iter
        (fun (v, on) ->
          Unix.putenv "RDB_CHECKS" v;
          check Alcotest.bool
            (Printf.sprintf "RDB_CHECKS=%S enables lint" v)
            on (raises_lint ()))
        [ ("lint", true); (" resource , lint ", true); ("sensitivity", false);
          ("", false) ];
      (* A clean plan passes through the enabled check without raising. *)
      Unix.putenv "RDB_CHECKS" "lint";
      let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
      check Alcotest.bool "planned under RDB_CHECKS=lint" true
        (Relset.equal (Plan.rel_set plan) (Relset.full 2)))

(* An explicit check list replaces RDB_CHECKS, and Verify bound-checks
   every plan of the loop: an estimate pinned far above the 2-relation
   join's sound upper bound must be caught at the initial plan. *)
let test_reopt_verify_checks_plans () =
  let cat = small_db () in
  let q = bind cat join_sql in
  let session = Session.create cat in
  Session.analyze session;
  let pinned = Hashtbl.create 1 in
  Hashtbl.replace pinned (Relset.full 2) 1e12;
  let mode = Estimator.Feedback (Hashtbl.find_opt pinned) in
  (match
     Reopt.run ~checks:[ Checks.Verify ] session ~trigger:(Trigger.create 2.0)
       ~mode q
   with
   | _ -> Alcotest.fail "Reopt.run ~checks:[Verify] accepted an impossible plan"
   | exception Checks.Check_failed (Checks.Verify, fs) ->
     check Alcotest.bool "estimate-exceeds-bound" true
       (has_error "estimate-exceeds-bound" fs));
  (* Without a list RDB_CHECKS selects the checks; a list replaces it. *)
  let prepared = Session.prepare session q in
  Unix.putenv "RDB_CHECKS" "verify";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "RDB_CHECKS" "")
    (fun () ->
      check Alcotest.bool "RDB_CHECKS=verify raises" true
        (match Session.plan prepared ~mode with
         | _ -> false
         | exception Checks.Check_failed (Checks.Verify, _) -> true);
      ignore (Session.plan ~checks:[] prepared ~mode))

let test_checks_of_string () =
  let name = Alcotest.testable (Fmt.of_to_string Checks.name) ( = ) in
  List.iter
    (fun (s, want) ->
      check Alcotest.(list name) (Printf.sprintf "%S" s) want
        (Checks.of_string s))
    Checks.
      [ ("", []);
        ("lint", [ Lint ]);
        (" lint , resource ", [ Lint; Resource ]);
        ("resource,lint,resource,lint", [ Lint; Resource ]);
        ("sensitivity,verify,", [ Verify; Sensitivity ]);
        ( "lint,verify,sensitivity,resource",
          [ Lint; Verify; Sensitivity; Resource ] ) ];
  let rejects s =
    match Checks.of_string s with
    | _ -> Alcotest.fail (s ^ " accepted")
    | exception Invalid_argument msg ->
      check Alcotest.string "names the token and the valid checks"
        "unknown check \"bogus\" (expected lint, verify, sensitivity, resource)"
        msg
  in
  rejects "bogus";
  rejects "lint, bogus"

(* ---- Sensitivity: interval abstract interpretation of the cost model ---- *)

module Sensitivity = Rdb_analysis.Sensitivity
module Interval = Rdb_cost.Interval
module Cost_model = Rdb_cost.Cost_model
module Oracle = Rdb_card.Oracle
module Card_bound = Rdb_verify.Card_bound
module Executor = Rdb_exec.Executor

let qtest = QCheck_alcotest.to_alcotest

(* Cardinalities as quarter-integers, so property inputs cover fractional
   estimates without wandering into float corner cases. *)
let card_arb = QCheck.map (fun i -> float_of_int i /. 4.0) QCheck.(int_range 0 4_000_000)
let delta_arb = QCheck.map (fun i -> float_of_int i /. 4.0) QCheck.(int_range 0 1_000_000)

let ( <=. ) x y = x <= y +. (1e-9 *. Float.max 1.0 (Float.abs y))

(* The property interval corner evaluation rests on: every operator cost is
   monotone non-decreasing in every cardinality input, checked one input at
   a time so a single non-monotone argument cannot hide behind the others. *)
let prop_cost_model_monotone =
  QCheck.Test.make ~name:"cost model monotone in every input cardinality"
    ~count:1000
    QCheck.(pair (pair (pair card_arb card_arb) (pair card_arb delta_arb))
              (int_range 0 5))
    (fun (((a, b), (c, d)), npreds) ->
      let cp = Cost_model.default in
      Cost_model.seq_scan cp ~rows:a ~npreds
      <=. Cost_model.seq_scan cp ~rows:(a +. d) ~npreds
      && Cost_model.index_scan cp ~matches:a ~npreds
         <=. Cost_model.index_scan cp ~matches:(a +. d) ~npreds
      && Cost_model.hash_join cp ~build:a ~probe:b ~out:c
         <=. Cost_model.hash_join cp ~build:(a +. d) ~probe:b ~out:c
      && Cost_model.hash_join cp ~build:a ~probe:b ~out:c
         <=. Cost_model.hash_join cp ~build:a ~probe:(b +. d) ~out:c
      && Cost_model.hash_join cp ~build:a ~probe:b ~out:c
         <=. Cost_model.hash_join cp ~build:a ~probe:b ~out:(c +. d)
      && Cost_model.nested_loop cp ~outer:a ~inner:b ~out:c
         <=. Cost_model.nested_loop cp ~outer:(a +. d) ~inner:b ~out:c
      && Cost_model.nested_loop cp ~outer:a ~inner:b ~out:c
         <=. Cost_model.nested_loop cp ~outer:a ~inner:(b +. d) ~out:c
      && Cost_model.nested_loop cp ~outer:a ~inner:b ~out:c
         <=. Cost_model.nested_loop cp ~outer:a ~inner:b ~out:(c +. d)
      && Cost_model.index_nested_loop cp ~outer:a ~out:c ~npreds
         <=. Cost_model.index_nested_loop cp ~outer:(a +. d) ~out:c ~npreds
      && Cost_model.index_nested_loop cp ~outer:a ~out:c ~npreds
         <=. Cost_model.index_nested_loop cp ~outer:a ~out:(c +. d) ~npreds)

(* The sensitivity analyzer's interval extension is the shared join-cost
   rule at the all-lo and all-hi corners of the input box. For every
   algorithm those corners must bracket the rule at any point of the box,
   each coordinate drawn on its own (a point on the diagonal alone would
   let one decreasing input hide behind the others) — the monotonicity
   property above is what makes the corners the extrema. *)
let prop_interval_brackets_point =
  let fixture = lazy (join_fixture ()) in
  let frac_arb =
    QCheck.map (fun i -> float_of_int i /. 4.0) QCheck.(int_range 0 4)
  in
  let box = QCheck.triple card_arb delta_arb frac_arb in
  QCheck.Test.make ~name:"interval cost brackets any point inside the box"
    ~count:1000
    QCheck.(pair (triple box box box) (pair box box))
    (fun ((o_rows, i_rows, out), (o_cost, i_cost)) ->
      let _, q, _, j = Lazy.force fixture in
      let cost algo at =
        Plan.join_cost Cost_model.default
          ~npreds:(Array.get (Query.pred_counts q))
          algo ~inner:j.Plan.inner
          ~edges:j.Plan.join_edges ~outer_rows:(at o_rows)
          ~inner_rows:(at i_rows) ~out:(at out) ~outer_cost:(at o_cost)
          ~inner_cost:(at i_cost)
      in
      let lo (l, _, _) = l and hi (l, d, _) = l +. d in
      let inside (l, d, t) = l +. (t *. d) in
      List.for_all
        (fun algo ->
          Interval.contains
            { Interval.lo = cost algo lo; hi = cost algo hi }
            (cost algo inside))
        [
          Plan.Hash_join;
          Plan.Nested_loop;
          Plan.Index_nl { inner_col = 0 };
        ])

let test_interval_basics () =
  let iv = Interval.make 10.0 2.0 in
  check (Alcotest.float 0.0) "make normalizes lo" 2.0 iv.Interval.lo;
  check (Alcotest.float 0.0) "make normalizes hi" 10.0 iv.Interval.hi;
  check Alcotest.bool "contains endpoint" true (Interval.contains iv 10.0);
  check Alcotest.bool "contains interior" true (Interval.contains iv 5.0);
  check Alcotest.bool "excludes outside" false (Interval.contains iv 11.0);
  check (Alcotest.float 1e-9) "width" 8.0 (Interval.width iv);
  check (Alcotest.float 1e-9) "ratio" 5.0 (Interval.ratio iv);
  let u = Interval.union iv (Interval.point 20.0) in
  check (Alcotest.float 0.0) "union hi" 20.0 u.Interval.hi;
  check Alcotest.string "to_string" "[2, 10]" (Interval.to_string iv)

let test_plan_shape_and_same_shape () =
  let _cat, q, _estimator, j = join_fixture () in
  let p = Plan.Join j in
  check Alcotest.bool "same_shape reflexive" true (Plan.same_shape p p);
  let other_algo =
    match j.Plan.algo with
    | Plan.Hash_join -> Plan.Nested_loop
    | _ -> Plan.Hash_join
  in
  check Alcotest.bool "algo change detected" false
    (Plan.same_shape p (Plan.Join { j with Plan.algo = other_algo }));
  check Alcotest.bool "cost change ignored" true
    (Plan.same_shape p (Plan.Join { j with Plan.join_cost = 1e9 }));
  let s = Plan.shape q p in
  check Alcotest.bool "shape names both aliases" true
    (contains s ~needle:"d" && contains s ~needle:"f")

(* Fed the plan's own estimates as degenerate intervals, the interpreter
   must reproduce the recorded costs exactly: point envelope in, point
   interval out, and zero mismatches on optimizer-produced plans. *)
let test_point_envelope_consistent () =
  let catalog = Lazy.force imdb in
  let session = Session.create catalog in
  Session.analyze session;
  List.iter
    (fun name ->
      let q = Rdb_imdb.Job_queries.find catalog name in
      let prepared = Session.prepare session q in
      let plan, _, est = Session.plan prepared ~mode:Estimator.Default in
      let envelope _ ~est = (est, est) in
      let report =
        Sensitivity.analyze ~envelope ~corner_replans:false ~catalog
          ~estimator:est q plan
      in
      check Alcotest.int (name ^ ": no cost mismatches") 0
        (List.length report.Sensitivity.cost_mismatches);
      let c = Plan.cost plan in
      let tol = 1e-6 *. Float.max 1.0 c in
      check Alcotest.bool (name ^ ": root interval collapses to plan cost")
        true
        (Float.abs (report.Sensitivity.root_cost.Interval.lo -. c) <= tol
         && Float.abs (report.Sensitivity.root_cost.Interval.hi -. c) <= tol);
      check Alcotest.bool (name ^ ": no error findings") false
        (Finding.has_errors (Sensitivity.findings q report)))
    [ "1a"; "6d"; "16b"; "18a"; "25c"; "30a" ]

let test_cost_mismatch_detected () =
  let cat, q, estimator, j = join_fixture () in
  let corrupted = Plan.Join { j with Plan.join_cost = j.Plan.join_cost *. 2.0 } in
  let fs =
    Sensitivity.check ~corner_replans:false ~catalog:cat ~estimator q corrupted
  in
  check Alcotest.bool "interval-cost-mismatch error" true
    (has_error "interval-cost-mismatch" fs);
  (* ... and the uncorrupted plan passes the same check. *)
  let fs =
    Sensitivity.check ~corner_replans:false ~catalog:cat ~estimator q
      (Plan.Join j)
  in
  check Alcotest.bool "clean plan has no errors" false (Finding.has_errors fs)

(* With the oracle's true cardinalities as degenerate interval endpoints,
   the static prediction must reproduce Reopt.find_trigger exactly,
   tie-break included. *)
let test_predict_trigger_matches_find_trigger () =
  let catalog = Lazy.force imdb in
  let session = Session.create catalog in
  Session.analyze session;
  List.iter
    (fun name ->
      let q = Rdb_imdb.Job_queries.find catalog name in
      let prepared = Session.prepare session q in
      let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
      let oracle = Session.oracle prepared in
      let envelope =
        Sensitivity.point_envelope (fun s ->
            float_of_int (Oracle.true_card oracle s))
      in
      let static_pred =
        Sensitivity.predict_trigger ~envelope ~threshold:32.0 q plan
      in
      match (static_pred, Reopt.find_trigger prepared plan (Trigger.create 32.0)) with
      | None, None -> ()
      | Some p, Some (_, set, _, _) ->
        check Alcotest.bool (name ^ ": same join selected") true
          (Relset.equal p.Sensitivity.pred_set set);
        check Alcotest.bool (name ^ ": point interval is certain") true
          p.Sensitivity.pred_certain
      | Some _, None -> Alcotest.failf "%s: static predicts, dynamic silent" name
      | None, Some _ -> Alcotest.failf "%s: dynamic fires, static silent" name)
    [ "1a"; "6d"; "16b"; "18a"; "25c"; "30a" ]

(* Acceptance: across the whole workload at threshold 32, the static
   prediction (true cardinalities as interval endpoints, no execution on
   the analyzer's side) must agree with the dynamic trigger — the first
   join Reopt.run actually materializes — on at least 80% of the queries
   it can run to completion. *)
let test_static_prediction_acceptance () =
  let catalog = Lazy.force imdb in
  let session = Session.create catalog in
  Session.analyze session;
  let queries = Rdb_imdb.Job_queries.all catalog in
  let agree = ref 0 and total = ref 0 in
  List.iter
    (fun (q : Query.t) ->
      let prepared = Session.prepare session q in
      let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
      let oracle = Session.oracle prepared in
      let envelope =
        Sensitivity.point_envelope (fun s ->
            float_of_int (Oracle.true_card oracle s))
      in
      let static_pred =
        Sensitivity.predict_trigger ~envelope ~threshold:32.0 q plan
      in
      match
        Reopt.run ~work_budget:20_000_000 ~initial:prepared session
          ~trigger:(Trigger.create 32.0) ~mode:Estimator.Default q
      with
      | outcome ->
        incr total;
        let dynamic =
          match outcome.Reopt.steps with
          | [] -> None
          | s :: _ -> Some s.Reopt.materialized_set
        in
        (match (static_pred, dynamic) with
         | None, None -> incr agree
         | Some p, Some set when Relset.equal p.Sensitivity.pred_set set ->
           incr agree
         | _ -> ())
      | exception Executor.Work_budget_exceeded _ -> ())
    queries;
  check Alcotest.bool
    (Printf.sprintf "agreement %d/%d >= 80%%" !agree !total)
    true
    (!total >= 60 && float_of_int !agree >= 0.8 *. float_of_int !total)

(* Corner replans: joins whose estimate, moved inside the envelope, flips
   the DP-optimal plan — and the blind-spot split at the trigger
   threshold. *)
let test_corner_replans_flag_fragile_joins () =
  let catalog = Lazy.force imdb in
  let session = Session.create catalog in
  Session.analyze session;
  let q = Rdb_imdb.Job_queries.find catalog "16b" in
  let prepared = Session.prepare session q in
  let plan, _, est = Session.plan prepared ~mode:Estimator.Default in
  let envelope =
    let ctx = Card_bound.create ~catalog ~stats:(Session.stats session) q in
    Sensitivity.intersect
      (Sensitivity.q_envelope 64.0)
      (Sensitivity.of_intervals (Card_bound.interval ctx))
  in
  let report =
    Sensitivity.analyze ~envelope ~threshold:32.0 ~corner_replans:true
      ~space:(Session.space prepared) ~catalog ~estimator:est q plan
  in
  let flips =
    List.filter
      (fun (f : Sensitivity.fragility) -> f.Sensitivity.frag_flips <> None)
      report.Sensitivity.fragilities
  in
  check Alcotest.bool "some join flips the plan" true (flips <> []);
  let fs = Sensitivity.findings q report in
  check Alcotest.bool "fragile-join reported" true (has_warning "fragile-join" fs);
  check Alcotest.bool "blind spot reported" true
    (has_warning "reopt-blind-spot" fs);
  (* fragile vs blind-spot is exactly the trigger-visibility split *)
  List.iter
    (fun (f : Sensitivity.fragility) ->
      check Alcotest.bool "trips iff worst q-error over threshold"
        (f.Sensitivity.frag_q_error >= 32.0) f.Sensitivity.frag_trips)
    flips

let test_robust_plan_reports_robust () =
  let cat = small_db () in
  let q = bind cat (join_sql ^ " AND d.id = 7") in
  let plan, estimator = plan_with_estimator cat q in
  (* Two relations, one join order dominated by the index path: a tight
     envelope neither trips the trigger nor flips the plan. *)
  let report =
    Sensitivity.analyze ~envelope:(Sensitivity.q_envelope 1.5) ~threshold:32.0
      ~corner_replans:true ~catalog:cat ~estimator q plan
  in
  let fs = Sensitivity.findings q report in
  check Alcotest.(list string) "only plan-robust" [ "plan-robust" ] (codes fs)

(* The sensitivity switch is now RDB_CHECKS=sensitivity at the fixed
   envelope factor 32; the legacy RDB_SENSITIVITY, numeric or not, is no
   longer read. *)
let test_rdb_sensitivity_env () =
  let finally () =
    Unix.putenv "RDB_SENSITIVITY" ""; Unix.putenv "RDB_CHECKS" ""
  in
  let name = Alcotest.testable (Fmt.of_to_string Checks.name) ( = ) in
  Fun.protect ~finally (fun () ->
      Unix.putenv "RDB_CHECKS" "";
      List.iter
        (fun v ->
          Unix.putenv "RDB_SENSITIVITY" v;
          check Alcotest.(list name)
            (Printf.sprintf "RDB_SENSITIVITY=%S is not read" v)
            [] (Checks.env ()))
        [ "1"; "true"; "8"; "banana" ];
      Unix.putenv "RDB_CHECKS" "sensitivity";
      let checks = Checks.env () in
      check Alcotest.(list name) "RDB_CHECKS=sensitivity" [ Checks.Sensitivity ]
        checks;
      (* The selected check rejects a plan whose recorded cost disagrees
         with the cost model, and passes the uncorrupted plan. *)
      let cat, q, estimator, j = join_fixture () in
      let corrupted =
        Plan.Join { j with Plan.join_cost = j.Plan.join_cost *. 2.0 }
      in
      check Alcotest.bool "corrupted plan raises" true
        (match Checks.plan checks ~catalog:cat ~estimator q corrupted with
         | () -> false
         | exception Checks.Check_failed (Checks.Sensitivity, fs) ->
           has_error "interval-cost-mismatch" fs);
      Checks.plan checks ~catalog:cat ~estimator q (Plan.Join j);
      (* With the switch on, clean plans pass through Session.plan. *)
      let session = Session.create cat in
      Session.analyze session;
      let prepared = Session.prepare session q in
      let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
      check Alcotest.bool "planned under RDB_CHECKS=sensitivity" true
        (Relset.equal (Plan.rel_set plan) (Relset.full 2)))

(* ---- collecting findings across a sweep ---- *)

let test_finding_summary () =
  let acc = ref [] in
  let w = Finding.warning ~code:"dup-pred" "duplicate predicate" in
  let e = Finding.error ~code:"stale-estimate" "stale estimate" in
  let i = Finding.info ~code:"rewrite-proved" "proved" in
  Finding.add acc "6d [default]" [ w; i ];
  Finding.add acc "6d [perfect-4]" [ w ];
  Finding.add acc "1a [default]" [ w ];
  Finding.add acc "6d [reopt]" [ e ];
  let collected = List.rev !acc in
  let query ctx = List.hd (String.split_on_char ' ' ctx) in
  let s = Finding.summarize ~key:query collected in
  (* one finding under several labels of one query prints once, under the
     first label it was seen with; errors first, then context, then text *)
  check Alcotest.string "deduped and sorted"
    "6d [reopt]: error[stale-estimate]: stale estimate\n\
     1a [default]: warning[dup-pred]: duplicate predicate\n\
     6d [default]: warning[dup-pred]: duplicate predicate\n\
     6d [default]: info[rewrite-proved]: proved\n"
    s.Finding.lines;
  check Alcotest.(pair int int) "deduped counts" (1, 2)
    (s.Finding.errors, s.Finding.warnings);
  check Alcotest.int "errors exit 1" 1 (Finding.exit_code s);
  (* without a key: collection order, nothing dropped; [shown] filters the
     lines but not the counts *)
  let s =
    Finding.summarize collected
      ~shown:(fun f -> f.Finding.severity <> Finding.Info)
  in
  check Alcotest.string "collection order, info hidden"
    "6d [default]: warning[dup-pred]: duplicate predicate\n\
     6d [perfect-4]: warning[dup-pred]: duplicate predicate\n\
     1a [default]: warning[dup-pred]: duplicate predicate\n\
     6d [reopt]: error[stale-estimate]: stale estimate\n"
    s.Finding.lines;
  check Alcotest.(pair int int) "hidden findings still counted" (1, 3)
    (s.Finding.errors, s.Finding.warnings);
  check Alcotest.int "clean exit 0" 0
    (Finding.exit_code (Finding.summarize [ ("1a", w) ]))

let () =
  Alcotest.run "rdb_analysis"
    [
      ( "query_lint",
        [
          Alcotest.test_case "JOB workload lints clean" `Quick
            test_job_queries_lint_clean;
          Alcotest.test_case "dangling alias" `Quick test_dangling_alias;
          Alcotest.test_case "duplicate alias" `Quick test_duplicate_alias;
          Alcotest.test_case "predicate column out of range" `Quick
            test_predicate_column_out_of_range;
          Alcotest.test_case "predicate type mismatch" `Quick
            test_predicate_type_mismatch;
          Alcotest.test_case "disconnected graph names components" `Quick
            test_disconnected_join_graph_named;
          Alcotest.test_case "duplicate and contradictory predicates" `Quick
            test_duplicate_and_contradictory_predicates;
          Alcotest.test_case "duplicate join edge" `Quick
            test_duplicate_join_edge;
        ] );
      ( "plan_lint",
        [
          Alcotest.test_case "clean plan lints clean" `Quick
            test_clean_plan_lints_clean;
          Alcotest.test_case "swapped subtree relsets" `Quick
            test_swapped_subtree_relsets;
          Alcotest.test_case "dropped join edge" `Quick test_dropped_join_edge;
          Alcotest.test_case "duplicated relation subtree" `Quick
            test_duplicated_relation_subtree;
          Alcotest.test_case "wrong index" `Quick test_wrong_index_scan;
          Alcotest.test_case "stale index key" `Quick test_stale_index_key;
          Alcotest.test_case "stale estimate" `Quick test_stale_estimate;
          Alcotest.test_case "corrupted costs" `Quick test_corrupted_costs;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "workload plans lint clean" `Quick
            test_workload_plans_lint_clean;
          Alcotest.test_case "debug hook raises" `Quick
            test_debug_hook_raises_on_corruption;
          Alcotest.test_case "reopt trajectory lints clean" `Quick
            test_reopt_lints_clean;
          Alcotest.test_case "RDB_LINT env enables hook" `Quick
            test_rdb_lint_env_enables_hook;
          Alcotest.test_case "verify checks reopt plans" `Quick
            test_reopt_verify_checks_plans;
          Alcotest.test_case "Checks.of_string table" `Quick
            test_checks_of_string;
        ] );
      ( "finding",
        [ Alcotest.test_case "summary dedupe, order, shown" `Quick
            test_finding_summary ] );
      ( "sensitivity",
        [
          qtest prop_cost_model_monotone;
          qtest prop_interval_brackets_point;
          Alcotest.test_case "interval basics" `Quick test_interval_basics;
          Alcotest.test_case "plan shape and same_shape" `Quick
            test_plan_shape_and_same_shape;
          Alcotest.test_case "point envelope reproduces recorded costs"
            `Quick test_point_envelope_consistent;
          Alcotest.test_case "cost mismatch detected" `Quick
            test_cost_mismatch_detected;
          Alcotest.test_case "static trigger matches find_trigger" `Quick
            test_predict_trigger_matches_find_trigger;
          Alcotest.test_case "static vs dynamic trigger agreement >= 80%"
            `Quick test_static_prediction_acceptance;
          Alcotest.test_case "corner replans flag fragile joins" `Quick
            test_corner_replans_flag_fragile_joins;
          Alcotest.test_case "robust plan reports robust" `Quick
            test_robust_plan_reports_robust;
          Alcotest.test_case "RDB_SENSITIVITY env switch" `Quick
            test_rdb_sensitivity_env;
        ] );
    ]
