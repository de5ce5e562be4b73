module Relset = Rdb_util.Relset
module Query = Rdb_query.Query
module Estimator = Rdb_card.Estimator
module Plan = Rdb_plan.Plan
module Executor = Rdb_exec.Executor
module Session = Rdb_core.Session
module Trigger = Rdb_core.Trigger
module Reopt = Rdb_core.Reopt
module Oracle = Rdb_card.Oracle

let check = Alcotest.check

(* ---- Trigger ---- *)

let test_trigger_fires () =
  let t = Trigger.create 32.0 in
  check Alcotest.bool "33x fires" true (Trigger.fires t ~est:10.0 ~actual:330.0);
  check Alcotest.bool "under fires too" true (Trigger.fires t ~est:330.0 ~actual:10.0);
  check Alcotest.bool "10x does not" false (Trigger.fires t ~est:10.0 ~actual:100.0)

let test_trigger_validation () =
  Alcotest.check_raises "threshold < 1"
    (Invalid_argument "Trigger.create: threshold must be >= 1") (fun () ->
      ignore (Trigger.create 0.5));
  Alcotest.check_raises "NaN threshold"
    (Invalid_argument "Trigger.create: threshold must be >= 1") (fun () ->
      ignore (Trigger.create Float.nan))

(* ---- Session ---- *)

let make_session scale =
  let catalog = Rdb_imdb.Imdb_gen.generate ~scale () in
  let session = Session.create catalog in
  Session.analyze session;
  (catalog, session)

let test_session_prepare_validates () =
  let catalog, session = make_session 0.02 in
  let q = Rdb_imdb.Job_queries.find catalog "1a" in
  let bad = { q with Query.rels = [| { Query.alias = "x"; table = "nope" } |] } in
  check Alcotest.bool "prepare rejects" true
    (try ignore (Session.prepare session bad); false
     with Invalid_argument _ -> true)

let test_session_temp_names_fresh () =
  let _, session = make_session 0.01 in
  let a = Session.fresh_temp_name session in
  let b = Session.fresh_temp_name session in
  check Alcotest.bool "distinct" true (a <> b)

(* ---- needed_cols and rewrite ---- *)

let test_needed_cols_covers_crossing_edges () =
  let catalog, _ = make_session 0.02 in
  let q = Rdb_imdb.Job_queries.find catalog "6d" in
  (* rels: t=0 mk=1 k=2 ci=3 n=4. Materialize {mk, k}. *)
  let set = Relset.of_list [ 1; 2 ] in
  let cols = Reopt.needed_cols q set in
  check Alcotest.bool "non-empty" true (cols <> []);
  List.iter
    (fun (cr : Query.colref) ->
      check Alcotest.bool "inside set" true (Relset.mem cr.Query.rel set))
    cols

let test_needed_cols_dedups_equivalent () =
  let catalog, _ = make_session 0.02 in
  (* In 16b, ci/mk/mc movie_id columns are all equated; materializing
     {ci, mk, k} should expose a single movie column for the t/mc joins,
     not one per relation. *)
  let q = Rdb_imdb.Job_queries.find catalog "16b" in
  (* rels order in 16b: t ci n an mk k mc cn *)
  let set = Relset.of_list [ 1; 4; 5 ] in
  let cols = Reopt.needed_cols q set in
  (* ci brings person_id (to n) and person_role... only crossing classes:
     movie (one representative), person. *)
  let movie_cols =
    List.filter (fun (cr : Query.colref) -> cr.Query.rel = 1 || cr.Query.rel = 4) cols
  in
  check Alcotest.bool "at most 2 movie-ish cols + person" true
    (List.length movie_cols <= 2)

let test_rewrite_structure () =
  let catalog, _ = make_session 0.02 in
  let q = Rdb_imdb.Job_queries.find catalog "6d" in
  let set = Relset.of_list [ 1; 2 ] in
  let cols = Reopt.needed_cols q set in
  let q' = Reopt.rewrite q ~set ~temp_name:"temp_x" ~temp_cols:cols in
  check Alcotest.int "two fewer rels, one temp" (Query.n_rels q - 1) (Query.n_rels q');
  check Alcotest.string "temp is last"
    "temp_x" q'.Query.rels.(Query.n_rels q' - 1).Query.alias;
  (* no predicate or edge may reference the removed relations *)
  List.iter
    (fun ({ Query.target; _ } : Query.pred) ->
      check Alcotest.bool "pred rel in range" true (target.Query.rel < Query.n_rels q'))
    q'.Query.preds;
  List.iter
    (fun { Query.l; r } ->
      check Alcotest.bool "edge rels in range" true
        (l.Query.rel < Query.n_rels q' && r.Query.rel < Query.n_rels q'))
    q'.Query.edges

(* ---- the full loop: semantic preservation ---- *)

let reopt_preserves_results name =
  let catalog, session = make_session 0.05 in
  let q = Rdb_imdb.Job_queries.find catalog name in
  let prepared = Session.prepare session q in
  let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
  let direct = Session.execute prepared plan in
  let outcome =
    Reopt.run session ~trigger:(Trigger.create 32.0) ~mode:Estimator.Default q
  in
  check Alcotest.int (name ^ " row count preserved") direct.Executor.out_rows
    outcome.Reopt.final_exec.Executor.out_rows;
  List.iter2
    (fun a b ->
      check Alcotest.bool (name ^ " aggregate preserved") true (Value.equal a b))
    direct.Executor.aggs outcome.Reopt.final_exec.Executor.aggs

let test_reopt_preserves_results () =
  List.iter reopt_preserves_results [ "1a"; "4b"; "6d"; "8a"; "16b"; "18a" ]

let test_reopt_cleanup () =
  let catalog, session = make_session 0.02 in
  let tables_before = List.map Table.name (Catalog.tables catalog) in
  let q = Rdb_imdb.Job_queries.find catalog "6d" in
  let outcome =
    Reopt.run session ~trigger:(Trigger.create 2.0) ~mode:Estimator.Default q
  in
  check Alcotest.bool "took at least one step" true (outcome.Reopt.steps <> []);
  let tables_after = List.map Table.name (Catalog.tables catalog) in
  check (Alcotest.list Alcotest.string) "temp tables dropped" tables_before
    tables_after

(* A re-opt step's oracle shares the filtered rows and join keys of every
   relation the rewrite keeps, and counts exactly what a fresh oracle of
   the rewritten query counts. Every JOB query at thresholds 2 and 32:
   each step's carried oracle is checked against a fresh one on every
   connected subset, and a kept relation's filtered rows must be the very
   array the previous step's oracle built, so a carry that stops
   happening fails too. The first step carries from an oracle that has
   counted every single relation and every pair, which gathers the join
   keys of every edge's two ends. *)
let test_reopt_oracle_carry () =
  let catalog, session = make_session 0.02 in
  let subsets q = Rdb_query.Join_graph.(connected_subsets (make q)) in
  List.iter
    (fun (q0 : Query.t) ->
      let first = Oracle.create catalog q0 in
      List.iter
        (fun s ->
          if Relset.cardinal s <= 2 then ignore (Oracle.true_card first s))
        (subsets q0);
      List.iter
        (fun threshold ->
          let outcome =
            Reopt.run ~cleanup:false session
              ~trigger:(Trigger.create threshold) ~mode:Estimator.Default q0
          in
          let prev = ref first and q = ref q0 in
          List.iter
            (fun (step : Reopt.step) ->
              let set = step.Reopt.materialized_set in
              let kept =
                List.filter
                  (fun i -> not (Relset.mem i set))
                  (List.init (Query.n_rels !q) Fun.id)
              in
              let q' = step.Reopt.query_after in
              let carried =
                Oracle.create
                  ~carry:(!prev, Array.of_list (kept @ [ -1 ]))
                  catalog q'
              in
              let fresh = Oracle.create catalog q' in
              List.iteri
                (fun i old ->
                  if
                    Oracle.filtered_rowids carried i
                    != Oracle.filtered_rowids !prev old
                  then
                    Alcotest.failf "%s reopt-%g: %s's rows not carried"
                      q'.Query.name threshold (Query.rel_alias q' i))
                kept;
              List.iter
                (fun s ->
                  let got = Oracle.true_card carried s
                  and want = Oracle.true_card fresh s in
                  if got <> want then
                    Alcotest.failf "%s reopt-%g {%s}: carried %d, fresh %d"
                      q'.Query.name threshold
                      (String.concat "," (Query.aliases q' s))
                      got want)
                (subsets q');
              prev := carried;
              q := q')
            outcome.Reopt.steps;
          List.iter
            (fun (step : Reopt.step) ->
              Session.drop_temp session step.Reopt.temp_name)
            outcome.Reopt.steps)
        [ 2.0; 32.0 ])
    (Rdb_imdb.Job_queries.all catalog)

let test_reopt_no_trigger_no_steps () =
  let catalog, session = make_session 0.02 in
  let q = Rdb_imdb.Job_queries.find catalog "1a" in
  (* With perfect estimates nothing can trip the trigger. *)
  let outcome =
    Reopt.run session ~trigger:(Trigger.create 32.0)
      ~mode:(Estimator.Perfect (Query.n_rels q)) q
  in
  check Alcotest.int "no steps" 0 (List.length outcome.Reopt.steps)

let test_reopt_accounting () =
  let catalog, session = make_session 0.05 in
  let q = Rdb_imdb.Job_queries.find catalog "16b" in
  let outcome =
    Reopt.run session ~trigger:(Trigger.create 4.0) ~mode:Estimator.Default q
  in
  let mat_total =
    List.fold_left (fun acc s -> acc +. s.Reopt.mat_ms) 0.0 outcome.Reopt.steps
  in
  check (Alcotest.float 0.001) "exec = materializations + final"
    (mat_total +. outcome.Reopt.final_exec.Executor.elapsed_ms)
    outcome.Reopt.total_exec_ms;
  check Alcotest.bool "plan time includes replans" true
    (outcome.Reopt.total_plan_ms >= outcome.Reopt.initial_plan_ms)

let test_reopt_max_steps () =
  let catalog, session = make_session 0.02 in
  let q = Rdb_imdb.Job_queries.find catalog "16b" in
  let outcome =
    Reopt.run ~max_steps:1 session ~trigger:(Trigger.create 2.0)
      ~mode:Estimator.Default q
  in
  check Alcotest.bool "at most one step" true (List.length outcome.Reopt.steps <= 1)

let test_reopt_composes_with_perfect () =
  let catalog, session = make_session 0.05 in
  let q = Rdb_imdb.Job_queries.find catalog "6d" in
  let outcome =
    Reopt.run session ~trigger:(Trigger.create 32.0) ~mode:(Estimator.Perfect 2) q
  in
  (* still correct *)
  let prepared = Session.prepare session q in
  let plan, _, _ =
    Session.plan prepared ~mode:(Estimator.Perfect (Query.n_rels q))
  in
  let direct = Session.execute prepared plan in
  check Alcotest.int "rows agree" direct.Executor.out_rows
    outcome.Reopt.final_exec.Executor.out_rows


(* ---- find_trigger tie-break ---- *)

(* A hand-built playground where several joins of the same size trip the
   trigger at once, so the documented tie-break (fewest relations, then
   deepest in the tree, then post-order) is observable. Five chained
   tables with every key equal, so every sub-join's true cardinality dwarfs
   the hand-planted estimate of 1. *)

let chain_catalog n_tables rows_per_table =
  let schema =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.Ty_int };
        { Schema.name = "k"; ty = Value.Ty_int };
      ]
  in
  let cat = Catalog.create () in
  for t = 0 to n_tables - 1 do
    Catalog.add_table cat
      (Table.create
         ~name:(Printf.sprintf "t%c" (Char.chr (Char.code 'a' + t)))
         ~schema
         [|
           Column.Ints (Array.init rows_per_table (fun i -> i));
           Column.Ints (Array.make rows_per_table 1);
         |])
  done;
  cat

let chain_query n_rels =
  let colref rel col = { Query.rel; col } in
  {
    Query.name = Printf.sprintf "chain%d" n_rels;
    rels =
      Array.init n_rels (fun i ->
          let c = Char.chr (Char.code 'a' + i) in
          { Query.alias = Printf.sprintf "%c" c;
            table = Printf.sprintf "t%c" c });
    preds = [];
    edges =
      List.init (n_rels - 1) (fun i ->
          { Query.l = colref i 1; r = colref (i + 1) 1 });
    select = [ Query.Count_star ];
  }

let scan rel =
  Plan.Scan
    { Plan.scan_rel = rel; access = Plan.Seq_scan; scan_est = 1.0; scan_cost = 1.0 }

let join outer inner edges =
  Plan.Join
    {
      Plan.algo = Plan.Hash_join;
      outer;
      inner;
      join_est = 1.0;
      join_cost = 1.0;
      join_edges = edges;
    }

let test_find_trigger_tiebreak_deepest () =
  (* plan: Join(Join(A,B), Join(Join(C,D), E)). With est=1 everywhere and
     10 rows per table (all keys equal), every join trips a 32x trigger.
     {A,B} and {C,D} are both 2-relation candidates; {C,D} sits deeper,
     so the tie-break must choose it — the old first-in-post-order
     behaviour returned {A,B}. *)
  let cat = chain_catalog 5 10 in
  let q = chain_query 5 in
  let session = Session.create cat in
  Session.analyze session;
  let prepared = Session.prepare session q in
  let edge i j = [ { Query.l = { Query.rel = i; col = 1 };
                     r = { Query.rel = j; col = 1 } } ] in
  let plan =
    join
      (join (scan 0) (scan 1) (edge 0 1))
      (join (join (scan 2) (scan 3) (edge 2 3)) (scan 4) (edge 3 4))
      (edge 1 2)
  in
  match Reopt.find_trigger prepared plan (Trigger.create 32.0) with
  | None -> Alcotest.fail "expected a tripping join"
  | Some (_, set, est, q_err) ->
    check (Alcotest.list Alcotest.int) "deepest 2-relation join wins" [ 2; 3 ]
      (Relset.to_list set);
    check (Alcotest.float 1e-9) "estimate carried" 1.0 est;
    check (Alcotest.float 1e-6) "q-error = actual/est" 100.0 q_err

let test_find_trigger_tiebreak_postorder () =
  (* equal size AND equal depth: Join(Join(A,B), Join(C,D)) — post-order
     position breaks the tie, so {A,B} (visited first) wins. *)
  let cat = chain_catalog 4 10 in
  let q = chain_query 4 in
  let session = Session.create cat in
  Session.analyze session;
  let prepared = Session.prepare session q in
  let edge i j = [ { Query.l = { Query.rel = i; col = 1 };
                     r = { Query.rel = j; col = 1 } } ] in
  let plan =
    join
      (join (scan 0) (scan 1) (edge 0 1))
      (join (scan 2) (scan 3) (edge 2 3))
      (edge 1 2)
  in
  match Reopt.find_trigger prepared plan (Trigger.create 32.0) with
  | None -> Alcotest.fail "expected a tripping join"
  | Some (_, set, _, _) ->
    check (Alcotest.list Alcotest.int) "post-order-first wins equal ties"
      [ 0; 1 ] (Relset.to_list set)

let test_find_trigger_smallest_first () =
  (* the size criterion still dominates depth: a deep 3-relation join must
     lose to a shallow 2-relation one *)
  let cat = chain_catalog 5 10 in
  let q = chain_query 5 in
  let session = Session.create cat in
  Session.analyze session;
  let prepared = Session.prepare session q in
  let edge i j = [ { Query.l = { Query.rel = i; col = 1 };
                     r = { Query.rel = j; col = 1 } } ] in
  (* Join(Join(Join(Join(A,B),C),D),E): the only 2-rel join {A,B} is also
     the deepest — so mask it: {A,B} carries its true cardinality (100) as
     estimate and does not trip, and the smallest *tripping* join is the
     3-relation {A,B,C}. *)
  let exact_ab =
    match join (scan 0) (scan 1) (edge 0 1) with
    | Plan.Join j -> Plan.Join { j with Plan.join_est = 100.0 }
    | Plan.Scan _ -> assert false
  in
  let plan =
    join
      (join (join exact_ab (scan 2) (edge 1 2)) (scan 3) (edge 2 3))
      (scan 4) (edge 3 4)
  in
  match Reopt.find_trigger prepared plan (Trigger.create 32.0) with
  | None -> Alcotest.fail "expected a tripping join"
  | Some (_, set, _, _) ->
    check (Alcotest.list Alcotest.int) "smallest tripping join" [ 0; 1; 2 ]
      (Relset.to_list set)

let test_find_trigger_size_beats_depth_across_subtrees () =
  (* Join(Join(Join(Join(C,D),E),F), Join(A,B)), 10 rows per table: the
     3-relation {C,D,E} sits deeper than the 2-relation {A,B}, and both
     trip; {C,D} carries its true cardinality (100) as estimate, so it
     does not. Size comes before depth, so {A,B} must win. *)
  let cat = chain_catalog 6 10 in
  let q = chain_query 6 in
  let session = Session.create cat in
  Session.analyze session;
  let prepared = Session.prepare session q in
  let edge i j = [ { Query.l = { Query.rel = i; col = 1 };
                     r = { Query.rel = j; col = 1 } } ] in
  let exact_cd =
    match join (scan 2) (scan 3) (edge 2 3) with
    | Plan.Join j -> Plan.Join { j with Plan.join_est = 100.0 }
    | Plan.Scan _ -> assert false
  in
  let plan =
    join
      (join (join exact_cd (scan 4) (edge 3 4)) (scan 5) (edge 4 5))
      (join (scan 0) (scan 1) (edge 0 1))
      (edge 2 1)
  in
  match Reopt.find_trigger prepared plan (Trigger.create 32.0) with
  | None -> Alcotest.fail "expected a tripping join"
  | Some (_, set, _, _) ->
    check (Alcotest.list Alcotest.int) "shallow 2-relation join wins"
      [ 0; 1 ] (Relset.to_list set)

(* The exhaustive walk find_trigger replaced, kept as the reference: price
   every join in post-order and keep the best tripping one — a later
   candidate wins only with strictly fewer relations, or as many and
   strictly greater depth. *)
let reference_find_trigger prepared plan (trigger : Trigger.t) =
  let oracle = Session.oracle prepared in
  let best = ref None in
  let rec walk depth node =
    match node with
    | Plan.Scan _ -> ()
    | Plan.Join j ->
      walk (depth + 1) j.Plan.outer;
      walk (depth + 1) j.Plan.inner;
      let set =
        Relset.union (Plan.rel_set j.Plan.outer) (Plan.rel_set j.Plan.inner)
      in
      let est = j.Plan.join_est in
      let actual = float_of_int (Rdb_card.Oracle.true_card oracle set) in
      if Trigger.fires trigger ~est ~actual then begin
        let size = Relset.cardinal set in
        let better =
          match !best with
          | None -> true
          | Some (_, prev_set, _, _, prev_depth) ->
            let prev_size = Relset.cardinal prev_set in
            size < prev_size || (size = prev_size && depth > prev_depth)
        in
        if better then
          best :=
            Some
              (j, set, est, Rdb_util.Stat_utils.q_error ~est ~actual, depth)
      end
  in
  walk 0 plan;
  Option.map (fun (j, set, est, q_err, _) -> (j, set, est, q_err)) !best

let test_find_trigger_matches_exhaustive_walk () =
  (* The first-trip search must pick the same join — the same node of the
     plan, with the same set, estimate and Q-error — as the exhaustive
     walk, on the Default plan of every JOB query. *)
  let catalog, session = make_session 0.02 in
  let tripped = ref 0 and silent = ref 0 in
  List.iter
    (fun (q : Query.t) ->
      let prepared = Session.prepare session q in
      let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
      List.iter
        (fun threshold ->
          let trigger = Trigger.create threshold in
          let label = Printf.sprintf "%s @%g" q.Query.name threshold in
          match
            ( Reopt.find_trigger prepared plan trigger,
              reference_find_trigger prepared plan trigger )
          with
          | None, None -> incr silent
          | Some (j, set, est, q_err), Some (j', set', est', q_err') ->
            incr tripped;
            check Alcotest.bool (label ^ ": same join node") true (j == j');
            check Alcotest.bool (label ^ ": same set") true
              (Relset.equal set set');
            check Alcotest.bool (label ^ ": same estimate") true
              (Float.equal est est');
            check Alcotest.bool (label ^ ": same q-error") true
              (Float.equal q_err q_err')
          | Some _, None | None, Some _ ->
            Alcotest.failf "%s: one search trips, the other does not" label)
        [ 2.0; 32.0; 1000.0 ])
    (Rdb_imdb.Job_queries.all catalog);
  (* both outcomes must be exercised *)
  check Alcotest.bool
    (Printf.sprintf "%d tripped, %d silent" !tripped !silent)
    true
    (!tripped > 0 && !silent > 0)

(* ---- replan_ms accounting ---- *)

let test_replan_ms_accounting () =
  (* every step carries the planning time of its own re-plan (they used to
     be backfilled with an O(n^2) List.nth_opt walk): the initial plan
     plus the per-step replans must reconstruct total_plan_ms exactly *)
  let catalog, session = make_session 0.05 in
  let q = Rdb_imdb.Job_queries.find catalog "16b" in
  let outcome =
    Reopt.run session ~trigger:(Trigger.create 4.0) ~mode:Estimator.Default q
  in
  check Alcotest.bool "took steps" true (outcome.Reopt.steps <> []);
  let replans =
    List.fold_left (fun acc s -> acc +. s.Reopt.replan_ms) 0.0 outcome.Reopt.steps
  in
  check (Alcotest.float 0.001) "initial + replans = total"
    outcome.Reopt.total_plan_ms
    (outcome.Reopt.initial_plan_ms +. replans);
  List.iter
    (fun s ->
      check Alcotest.bool "replan time recorded" true (s.Reopt.replan_ms > 0.0))
    outcome.Reopt.steps

(* ---- EXPLAIN ANALYZE ---- *)

let test_explain_analyze_render () =
  let catalog, session = make_session 0.05 in
  let q = Rdb_imdb.Job_queries.find catalog "6d" in
  let prepared = Session.prepare session q in
  let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
  let res = Session.execute prepared plan in
  let out =
    Rdb_core.Explain_analyze.render ~trigger:(Trigger.create 32.0) prepared
      plan res
  in
  let contains needle =
    let n = String.length needle and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "actual rows annotated" true (contains "actual rows=");
  check Alcotest.bool "q-error annotated" true (contains "q-error=");
  check Alcotest.bool "trigger join flagged" true (contains "<= re-opt trigger");
  check Alcotest.bool "totals footer" true (contains "adaptive switches");
  check Alcotest.bool "bounds off by default" false (contains "bounds=[");
  (* --bounds column: the verifier's sound interval next to est/actual *)
  let out_b =
    Rdb_core.Explain_analyze.render ~bounds:true
      ~trigger:(Trigger.create 32.0) prepared plan res
  in
  let contains_b needle =
    let n = String.length needle and m = String.length out_b in
    let rec go i = i + n <= m && (String.sub out_b i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "bounds annotated" true (contains_b "bounds=[");
  (* the flagged join is the one find_trigger selects *)
  (match Reopt.find_trigger prepared plan (Trigger.create 32.0) with
   | None -> Alcotest.fail "6d default estimates should trip at 32x"
   | Some _ -> ());
  (* adaptive execution surfaces demotions in the render *)
  let res_a = Session.execute ~adaptive:true prepared plan in
  if res_a.Executor.switches > 0 then begin
    let out_a = Rdb_core.Explain_analyze.render prepared plan res_a in
    let contains_a needle =
      let n = String.length needle and m = String.length out_a in
      let rec go i = i + n <= m && (String.sub out_a i n = needle || go (i + 1)) in
      go 0
    in
    check Alcotest.bool "switch annotated" true (contains_a "adaptive switch:")
  end

(* ---- Feedback (LEO) ---- *)

let test_feedback_signature_alias_independent () =
  let catalog, _ = make_session 0.02 in
  let q = Rdb_imdb.Job_queries.find catalog "6d" in
  (* rels: t mk k ci n; renaming aliases must not change signatures *)
  let q2 =
    { q with
      Query.rels =
        Array.map (fun r -> { r with Query.alias = r.Query.alias ^ "_x" }) q.Query.rels }
  in
  let s = Relset.of_list [ 1; 2 ] in
  check Alcotest.string "alias independent"
    (Rdb_core.Feedback.signature q s)
    (Rdb_core.Feedback.signature q2 s)

let test_feedback_signature_distinguishes_preds () =
  let catalog, _ = make_session 0.02 in
  let qa = Rdb_imdb.Job_queries.find catalog "6a" in
  let qd = Rdb_imdb.Job_queries.find catalog "6d" in
  (* the mk-k pair differs by the keyword predicate *)
  let s = Relset.of_list [ 1; 2 ] in
  check Alcotest.bool "different predicates differ" true
    (Rdb_core.Feedback.signature qa s <> Rdb_core.Feedback.signature qd s)

let test_feedback_learns_and_transfers () =
  let catalog, session = make_session 0.05 in
  let q = Rdb_imdb.Job_queries.find catalog "6d" in
  let feedback = Rdb_core.Feedback.create () in
  let prepared = Session.prepare session q in
  let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
  let res = Session.execute prepared plan in
  Rdb_core.Feedback.observe feedback ~catalog q res;
  check Alcotest.bool "learned something" true (Rdb_core.Feedback.size feedback > 0);
  (* the full set's cardinality is now known exactly *)
  let full = Relset.full (Query.n_rels q) in
  (match Rdb_core.Feedback.lookup feedback ~catalog q full with
   | Some v ->
     check (Alcotest.float 0.5) "full-set card learned"
       (float_of_int res.Executor.out_rows) v
   | None -> Alcotest.fail "full set not learned");
  (* planning under the feedback mode serves the correction through the
     estimator's memo — demand-driven, no eager subset sweep *)
  let mode = Session.feedback_mode prepared feedback in
  let _plan, _, est = Session.plan prepared ~mode in
  check (Alcotest.float 0.5) "estimator serves learned card"
    (Float.max 1.0 (float_of_int res.Executor.out_rows))
    (Rdb_card.Estimator.card est full)

(* A session created with a store learns from every [Session.execute];
   observations recorded before a table's mod_count moves are dropped the
   moment it does. *)
let make_feedback_session scale =
  let catalog = Rdb_imdb.Imdb_gen.generate ~scale () in
  let feedback = Rdb_core.Feedback.create () in
  let session = Session.create ~feedback catalog in
  Session.analyze session;
  (catalog, session, feedback)

(* The pre-PR encoding, reproduced verbatim: members/predicates joined
   with bare "|" / ";" separators around raw Predicate.to_sql output. *)
let legacy_rel_signature (q : Query.t) rel =
  let preds =
    Query.preds_of_cols q rel
    |> List.map (fun (col, p) ->
           Rdb_query.Predicate.to_sql ~col:(Printf.sprintf "c%d" col) p)
    |> List.sort String.compare
  in
  Printf.sprintf "%s[%s]" q.Query.rels.(rel).Query.table
    (String.concat ";" preds)

let legacy_signature (q : Query.t) s =
  let members =
    Relset.to_list s
    |> List.map (legacy_rel_signature q)
    |> List.sort String.compare
  in
  String.concat "|" members ^ "||"

let handmade name rels preds =
  {
    Query.name;
    rels = Array.of_list rels;
    preds;
    edges = [];
    select = [ Query.Count_star ];
  }

let str_eq rel col s =
  {
    Query.target = { Query.rel; col };
    p = Rdb_query.Predicate.Cmp (Rdb_query.Predicate.Eq, Value.Str s);
  }

let test_feedback_signature_injective () =
  (* Two relations of [t], restricted to '' and 'a' — versus one relation
     of [t] whose string constant smuggles in the separators. Under the
     legacy separator-joined encoding both render to the same key; the
     length-prefixed encoding must keep them apart. *)
  let rel a = { Query.alias = a; table = "t" } in
  let q2 = handmade "two" [ rel "a"; rel "b" ] [ str_eq 0 0 ""; str_eq 1 0 "a" ] in
  let q1 = handmade "one" [ rel "a" ] [ str_eq 0 0 "']|t[c0 = 'a" ] in
  let s2 = Relset.of_list [ 0; 1 ] and s1 = Relset.of_list [ 0 ] in
  check Alcotest.string "legacy encoding collides (the bug)"
    (legacy_signature q2 s2) (legacy_signature q1 s1);
  check Alcotest.bool "length-prefixed encoding distinguishes" true
    (Rdb_core.Feedback.signature q2 s2 <> Rdb_core.Feedback.signature q1 s1);
  (* A second adversarial pair: one predicate whose constant embeds the
     legacy ";" pred separator vs two genuine predicates. *)
  let qa = handmade "semi" [ rel "a" ] [ str_eq 0 0 "x';c1 = 'y" ] in
  let qb = handmade "pair" [ rel "a" ] [ str_eq 0 0 "x"; str_eq 0 1 "y" ] in
  let s = Relset.of_list [ 0 ] in
  check Alcotest.string "legacy encoding collides on preds"
    (legacy_signature qa s) (legacy_signature qb s);
  check Alcotest.bool "length-prefixed preds distinguish" true
    (Rdb_core.Feedback.signature qa s <> Rdb_core.Feedback.signature qb s)

let test_feedback_staleness () =
  let catalog, _session, feedback = make_feedback_session 0.01 in
  let q = Rdb_imdb.Job_queries.find catalog "1a" in
  let s = Relset.of_list [ 0; 1 ] in
  Rdb_core.Feedback.observe_card feedback ~catalog q s 42;
  (match Rdb_core.Feedback.lookup feedback ~catalog q s with
   | Some v -> check (Alcotest.float 0.001) "served while fresh" 42.0 v
   | None -> Alcotest.fail "fresh entry not served");
  (* ingest/ANALYZE on a member table bumps its mod_count: the correction
     must no longer be served, and the entry is dropped *)
  Catalog.touch catalog q.Query.rels.(0).Query.table;
  check Alcotest.bool "stale entry not served" true
    (Rdb_core.Feedback.lookup feedback ~catalog q s = None);
  check Alcotest.int "stale entry dropped" 0 (Rdb_core.Feedback.size feedback)

let test_feedback_persistence_roundtrip () =
  let catalog, session, feedback = make_feedback_session 0.02 in
  let q = Rdb_imdb.Job_queries.find catalog "1a" in
  let prepared = Session.prepare session q in
  let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
  (* the session was created with the store: execute learns into it *)
  let _res = Session.execute prepared plan in
  check Alcotest.bool "session learned" true
    (Rdb_core.Feedback.size feedback > 0);
  let path = Filename.temp_file "rdb_feedback" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rdb_core.Feedback.save feedback path;
      match Rdb_core.Feedback.load path with
      | None -> Alcotest.fail "saved store failed to load"
      | Some loaded ->
        check Alcotest.int "same size" (Rdb_core.Feedback.size feedback)
          (Rdb_core.Feedback.size loaded);
        check Alcotest.bool "identical entries" true
          (Rdb_core.Feedback.entries feedback
          = Rdb_core.Feedback.entries loaded);
        (* identical lookups, epochs included *)
        let full = Relset.full (Query.n_rels q) in
        check Alcotest.bool "identical lookups" true
          (Rdb_core.Feedback.lookup loaded ~catalog q full
          = Rdb_core.Feedback.lookup feedback ~catalog q full))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_feedback_reopt_rekeys () =
  let catalog, session, feedback = make_feedback_session 0.02 in
  let q = Rdb_imdb.Job_queries.find catalog "6d" in
  let trigger = Trigger.create 2.0 in
  let outcome = Reopt.run session ~trigger ~mode:Estimator.Default q in
  check Alcotest.bool "re-opt stepped" true (outcome.Reopt.steps <> []);
  (* the first step's materialized set is in the original numbering: its
     paid-for true cardinality must be remembered under the original
     query's signature *)
  let step0 = List.hd outcome.Reopt.steps in
  (match
     Rdb_core.Feedback.lookup feedback ~catalog q
       step0.Reopt.materialized_set
   with
   | Some v ->
     check (Alcotest.float 0.5) "materialized card re-keyed"
       (float_of_int step0.Reopt.temp_rows) v
   | None -> Alcotest.fail "materialized set not learned");
  (* the final execution ran a rewritten query over temp tables, yet the
     full-set observation lands on the original query's full set *)
  let full = Relset.full (Query.n_rels q) in
  (match Rdb_core.Feedback.lookup feedback ~catalog q full with
   | Some v ->
     check (Alcotest.float 0.5) "final exec re-keyed"
       (float_of_int outcome.Reopt.final_exec.Executor.out_rows) v
   | None -> Alcotest.fail "full set not learned from re-opt run");
  (* no signature may mention a temp table: those keys are session-local
     garbage no later query could ever match *)
  List.iter
    (fun (key, _) ->
      check Alcotest.bool "no temp-table keys" false
        (contains_sub key "temp_"))
    (Rdb_core.Feedback.entries feedback)

let test_feedback_gate_blocks_fragile () =
  let tbl = Hashtbl.create 8 in
  let set l = Relset.of_list l in
  Hashtbl.replace tbl (set [ 0 ]) 10.0;
  Hashtbl.replace tbl (set [ 0; 1; 2 ]) 500.0;
  Hashtbl.replace tbl (set [ 3 ]) 7.0;
  Hashtbl.replace tbl (set [ 0; 3 ]) 70.0;
  let lookup s = Hashtbl.find_opt tbl s in
  let fragile = [ set [ 0; 1; 2 ] ] in
  let gated = Rdb_core.Feedback.gate ~fragile lookup in
  check Alcotest.bool "correction below a fragile join blocked" true
    (gated (set [ 0 ]) = None);
  check Alcotest.bool "correction on the fragile join itself blocked" true
    (gated (set [ 0; 1; 2 ]) = None);
  check Alcotest.bool "unrelated correction served" true
    (gated (set [ 3 ]) = Some 7.0);
  check Alcotest.bool "non-subset overlap served" true
    (gated (set [ 0; 3 ]) = Some 70.0);
  check Alcotest.bool "misses stay misses" true (gated (set [ 5 ]) = None)

let () =
  Alcotest.run "rdb_core"
    [
      ( "trigger",
        [
          Alcotest.test_case "fires on q-error" `Quick test_trigger_fires;
          Alcotest.test_case "validation" `Quick test_trigger_validation;
        ] );
      ( "session",
        [
          Alcotest.test_case "prepare validates" `Quick test_session_prepare_validates;
          Alcotest.test_case "fresh temp names" `Quick test_session_temp_names_fresh;
        ] );
      ( "rewrite",
        [
          Alcotest.test_case "needed_cols covers crossing edges" `Quick
            test_needed_cols_covers_crossing_edges;
          Alcotest.test_case "needed_cols dedups classes" `Quick
            test_needed_cols_dedups_equivalent;
          Alcotest.test_case "rewrite structure" `Quick test_rewrite_structure;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "alias-independent signatures" `Quick
            test_feedback_signature_alias_independent;
          Alcotest.test_case "predicates distinguish" `Quick
            test_feedback_signature_distinguishes_preds;
          Alcotest.test_case "learns and transfers" `Quick
            test_feedback_learns_and_transfers;
          Alcotest.test_case "injective signatures" `Quick
            test_feedback_signature_injective;
          Alcotest.test_case "staleness on mod_count bump" `Quick
            test_feedback_staleness;
          Alcotest.test_case "persistence round-trip" `Quick
            test_feedback_persistence_roundtrip;
          Alcotest.test_case "re-opt observations re-keyed" `Quick
            test_feedback_reopt_rekeys;
          Alcotest.test_case "gate blocks fragile corrections" `Quick
            test_feedback_gate_blocks_fragile;
        ] );
      ( "find_trigger",
        [
          Alcotest.test_case "deepest wins among equal sizes" `Quick
            test_find_trigger_tiebreak_deepest;
          Alcotest.test_case "post-order breaks exact ties" `Quick
            test_find_trigger_tiebreak_postorder;
          Alcotest.test_case "size dominates depth" `Quick
            test_find_trigger_smallest_first;
          Alcotest.test_case "size beats depth across subtrees" `Quick
            test_find_trigger_size_beats_depth_across_subtrees;
          Alcotest.test_case "first trip = exhaustive walk on JOB" `Quick
            test_find_trigger_matches_exhaustive_walk;
        ] );
      ( "explain_analyze",
        [
          Alcotest.test_case "render annotations" `Quick
            test_explain_analyze_render;
        ] );
      ( "reopt",
        [
          Alcotest.test_case "preserves results" `Slow test_reopt_preserves_results;
          Alcotest.test_case "replan time per step" `Quick
            test_replan_ms_accounting;
          Alcotest.test_case "cleans up temp tables" `Quick test_reopt_cleanup;
          Alcotest.test_case "carried oracle = fresh oracle" `Slow
            test_reopt_oracle_carry;
          Alcotest.test_case "perfect estimates never trigger" `Quick
            test_reopt_no_trigger_no_steps;
          Alcotest.test_case "time accounting" `Quick test_reopt_accounting;
          Alcotest.test_case "max steps" `Quick test_reopt_max_steps;
          Alcotest.test_case "composes with perfect-(n)" `Quick
            test_reopt_composes_with_perfect;
        ] );
    ]
