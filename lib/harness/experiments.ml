module Relset = Rdb_util.Relset
module Pretty = Rdb_util.Pretty
module Stat_utils = Rdb_util.Stat_utils
module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Estimator = Rdb_card.Estimator
module Estimate_log = Rdb_card.Estimate_log
module Oracle = Rdb_card.Oracle
module Plan = Rdb_plan.Plan
module Executor = Rdb_exec.Executor
module Session = Rdb_core.Session
module Reopt = Rdb_core.Reopt
module Unparse = Rdb_sql.Unparse

let fmt_total ms = Printf.sprintf "%.2f" (ms /. 1000.0)

(* ---- the configuration table: one row per configuration, one column
   per quantity summed over its cells ---- *)

let plan_s = ("plan (s)", Runner.total_plan_ms)
let exec_s = ("exec (s)", Runner.total_exec_ms)

let total_s =
  ("total (s)", fun ms -> Runner.total_plan_ms ms +. Runner.total_exec_ms ms)

let config_table ?(columns = [ plan_s; exec_s; total_s ]) grid =
  Pretty.table
    ~headers:("configuration" :: List.map fst columns)
    (List.map
       (fun (config, ms) ->
         Runner.config_name config
         :: List.map (fun (_, sum) -> fmt_total (sum ms)) columns)
       grid)

(* ---- estimate vs truth for one ad-hoc query (skew, CORDS) ---- *)

let estimate session sql =
  let catalog = Session.catalog session in
  let q =
    match Rdb_sql.Binder.bind catalog ~name:"probe" (Rdb_sql.Parser.parse sql) with
    | Ok q -> q
    | Error e -> invalid_arg e
  in
  let prepared = Session.prepare session q in
  let estimator =
    Estimator.create ~mode:Estimator.Default ~catalog
      ~stats:(Session.stats session) q
  in
  let full = Relset.full (Query.n_rels q) in
  (Estimator.card estimator full, Oracle.true_card (Session.oracle prepared) full)

(* ---- Table I ---- *)

let table1 ~jobs:_ lab =
  let log = Estimate_log.create () in
  List.iter
    (fun q ->
      ignore
        (Session.plan ~log (Runner.prepared_of lab q) ~mode:Estimator.Default))
    (Runner.queries lab);
  let rows =
    List.map
      (fun (size, count) -> [ string_of_int size; string_of_int count ])
      (Estimate_log.counts log)
  in
  Pretty.heading "Table I: cardinality estimates on joins of N tables"
  ^ "\n"
  ^ Pretty.table ~headers:[ "# tables in join"; "# estimates" ] rows
  ^ Printf.sprintf "\ntotal estimates: %d\n" (Estimate_log.total log)

(* ---- relative-runtime buckets (Tables II and VI) ---- *)

let bucket_labels =
  [ "0.1 - 0.8"; "0.8 - 1.2"; "1.2 - 2.0"; "2.0 - 5.0"; "> 5.0" ]

let bucket_of ratio =
  if ratio < 0.8 then 0
  else if ratio < 1.2 then 1
  else if ratio < 2.0 then 2
  else if ratio < 5.0 then 3
  else 4

let relative_table ~jobs lab ~config ~title =
  let grid = Runner.run_grid ~jobs lab [ Runner.Perfect_all; config ] in
  let counts = Array.make 5 0 in
  List.iter2
    (fun (s : Runner.measurement) (p : Runner.measurement) ->
      (* Floor very fast queries so ratios stay meaningful. *)
      let ratio =
        Float.max 0.05 s.Runner.m_exec_ms /. Float.max 0.05 p.Runner.m_exec_ms
      in
      let b = bucket_of ratio in
      counts.(b) <- counts.(b) + 1)
    (List.assoc config grid)
    (List.assoc Runner.Perfect_all grid);
  let rows =
    List.mapi
      (fun i label -> [ label; string_of_int counts.(i) ])
      bucket_labels
  in
  Pretty.heading title ^ "\n"
  ^ Pretty.table ~headers:[ "relative runtime"; "number of queries" ] rows
  ^ "\n"

let table2 ~jobs lab =
  relative_table ~jobs lab ~config:Runner.Default
    ~title:
      "Table II: JOB query execution time with PostgreSQL-style estimation relative to perfect-(17)"

let table6 ~jobs lab =
  relative_table ~jobs lab ~config:(Runner.Reopt 32.0)
    ~title:
      "Table VI: JOB query execution time with re-optimization relative to perfect-(17)"

(* ---- Table III ---- *)

let table3 ~jobs:_ _ =
  let rows =
    List.map
      (fun (size, count) -> [ string_of_int size; string_of_int count ])
      (Rdb_imdb.Job_queries.distribution ())
  in
  Pretty.heading "Table III: number of queries with a given number of tables"
  ^ "\n"
  ^ Pretty.table ~headers:[ "# tables"; "# queries" ] rows
  ^ "\n"

(* ---- Figure 1 ---- *)

let fig1_configs =
  [
    Runner.Default;
    Runner.Perfect 3;
    Runner.Perfect 4;
    Runner.Reopt 32.0;
    Runner.Perfect_all;
  ]

(* Ranked by deterministic work, ties by name, so the same 20 queries are
   chosen on every run and at every [jobs]. *)
let top20 (default : Runner.measurement list) =
  List.sort
    (fun (a : Runner.measurement) (b : Runner.measurement) ->
      match Int.compare b.Runner.m_work a.Runner.m_work with
      | 0 -> String.compare a.Runner.m_query b.Runner.m_query
      | c -> c)
    default
  |> List.filteri (fun i _ -> i < 20)
  |> List.map (fun (m : Runner.measurement) -> m.Runner.m_query)

let fig1 ~jobs lab =
  let top20 =
    top20 (List.assoc Runner.Default (Runner.run_grid ~jobs lab [ Runner.Default ]))
  in
  let grid =
    Runner.run_grid ~jobs ~queries:(List.map (Runner.query lab) top20) lab
      fig1_configs
  in
  Pretty.heading
    "Figure 1: top-20 longest-running queries, planning + execution (seconds)"
  ^ "\n"
  ^ Printf.sprintf "top-20 queries (by default work): %s\n"
      (String.concat " " top20)
  ^ config_table grid ^ "\n"

(* ---- Figure 2 ---- *)

let max_rels lab =
  List.fold_left
    (fun acc q -> Int.max acc (Query.n_rels q))
    0 (Runner.queries lab)

(* perfect-(n) for n = 0 (default) up to every relation (perfect-all). *)
let perfect_sweep lab =
  let n_max = max_rels lab in
  List.init (n_max + 1) (fun n ->
      if n = 0 then Runner.Default
      else if n >= n_max then Runner.Perfect_all
      else Runner.Perfect n)

let perfect_label n = if n = 0 then "default" else Printf.sprintf "perfect-%d" n

let fig2 ~jobs lab =
  let points =
    List.mapi
      (fun n (_, ms) ->
        ( perfect_label n,
          (Runner.total_plan_ms ms +. Runner.total_exec_ms ms) /. 1000.0 ))
      (Runner.run_grid ~jobs lab (perfect_sweep lab))
  in
  Pretty.heading
    "Figure 2: total planning + execution (s) with perfect-(n) estimates"
  ^ "\n"
  ^ Pretty.series ~title:"seconds by estimate quality" points
  ^ "\n"

(* ---- Figures 3 and 4 ---- *)

let fig3_4 ~jobs:_ lab =
  let dot name =
    let q = Runner.query lab name in
    Printf.sprintf "join graph of %s:\n%s" name
      (Join_graph.to_dot q)
  in
  Pretty.heading "Figures 3 and 4: join graphs of 6d and 18a (GraphViz)"
  ^ "\n" ^ dot "6d" ^ "\n" ^ dot "18a"

(* ---- Tables IV/V + the Nasdaq skew example ---- *)

let skew ~jobs:_ _ =
  let prng = Rdb_util.Prng.create 7 in
  let n_companies = 2000 and n_trades = 200_000 in
  let symbols =
    Array.init n_companies (fun i ->
        if i = 0 then "APPL"
        else if i = 1 then "GOOG"
        else Printf.sprintf "S%04d" i)
  in
  let catalog = Catalog.create () in
  let company_schema =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.Ty_int };
        { Schema.name = "symbol"; ty = Value.Ty_str };
        { Schema.name = "company"; ty = Value.Ty_str };
      ]
  in
  Catalog.add_table catalog
    (Table.create ~name:"company" ~schema:company_schema
       [|
         Column.Ints (Array.init n_companies (fun i -> i + 1));
         Column.Strs symbols;
         Column.Strs (Array.map (fun s -> s ^ " Inc.") symbols);
       |]);
  let zipf = Rdb_util.Zipf.create ~n:n_companies ~s:1.1 in
  let company_id =
    Array.init n_trades (fun _ -> Rdb_util.Zipf.sample zipf prng + 1)
  in
  let trades_schema =
    Schema.make
      [
        { Schema.name = "company_id"; ty = Value.Ty_int };
        { Schema.name = "shares"; ty = Value.Ty_int };
      ]
  in
  Catalog.add_table catalog
    (Table.create ~name:"trades" ~schema:trades_schema
       [|
         Column.Ints company_id;
         Column.Ints (Array.init n_trades (fun _ -> 10 * (1 + Rdb_util.Prng.int prng 1000)));
       |]);
  Catalog.add_index catalog ~table:"company" ~col:0;
  Catalog.add_index catalog ~table:"trades" ~col:0;
  let session = Session.create catalog in
  Session.analyze session;
  let sql =
    "SELECT COUNT(*) FROM company AS c, trades AS tr \
     WHERE c.symbol = 'APPL' AND c.id = tr.company_id;"
  in
  let est, actual = estimate session sql in
  (* The same join restricted on the join column itself: APPL is c.id = 1,
     and the MCV list of trades.company_id holds its frequency. *)
  let by_id =
    "SELECT COUNT(*) FROM company AS c, trades AS tr \
     WHERE c.id = 1 AND c.id = tr.company_id;"
  in
  let est_id, actual_id = estimate session by_id in
  Pretty.heading "Tables IV/V + §IV-C: skew across a join (Nasdaq example)"
  ^ "\n"
  ^ Printf.sprintf
      "companies: %d rows (APPL is the most traded)\ntrades: %d rows, Zipf-distributed volume\n\n%s\n\nestimated join cardinality: %.0f rows\nactual join cardinality:    %d rows\nunder-estimation factor:    %.0fx\n"
      n_companies n_trades sql est actual
      (float_of_int actual /. Float.max 1.0 est)
  ^ Printf.sprintf
      "\nthe same join, restricted on the join column (MCV statistics see the skew):\n\n%s\n\nestimated join cardinality: %.0f rows\nactual join cardinality:    %d rows\n"
      by_id est_id actual_id

(* ---- Figure 5: LEO-style iterative improvement ---- *)

let fig5_threshold = 32.0
let fig5_queries = [ "16b"; "25c"; "30a" ]

let fig5_one lab (perfect : Runner.measurement) =
  let name = perfect.Runner.m_query in
  let q = Runner.query lab name in
  let prepared = Runner.prepared_of lab q in
  let oracle = Session.oracle prepared in
  Oracle.ensure_up_to oracle (Query.n_rels q);
  let overrides : (Relset.t, float) Hashtbl.t = Hashtbl.create 32 in
  let rec subtree_sets plan acc =
    match plan with
    | Plan.Scan s -> Relset.singleton s.Plan.scan_rel :: acc
    | Plan.Join j ->
      let set = Plan.rel_set plan in
      subtree_sets j.Plan.outer (subtree_sets j.Plan.inner (set :: acc))
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "query %s (perfect plan executes in %s):\n" name
       (Pretty.ms perfect.Runner.m_exec_ms));
  let rec iterate i =
    if i > 40 then ()
    else begin
      let plan, _, _ =
        Session.plan prepared
          ~mode:(Estimator.Feedback (Hashtbl.find_opt overrides))
      in
      let exec_ms =
        try
          (Session.execute ~work_budget:(Runner.work_budget lab) prepared plan)
            .Executor.elapsed_ms
        with Executor.Work_budget_exceeded { elapsed_ms; _ } -> elapsed_ms
      in
      Buffer.add_string buf
        (Printf.sprintf "  corrections=%-3d exec=%s\n" i (Pretty.ms exec_ms));
      (* Lowest join whose (possibly overridden) estimate is still off by
         the threshold: pin it and its whole subtree to the truth. *)
      let candidate =
        List.fold_left
          (fun best (j : Plan.join) ->
            let set =
              Relset.union (Plan.rel_set j.Plan.outer) (Plan.rel_set j.Plan.inner)
            in
            let est = j.Plan.join_est in
            let actual = float_of_int (Oracle.true_card oracle set) in
            if Stat_utils.q_error ~est ~actual >= fig5_threshold then
              match best with
              | None -> Some (j, set)
              | Some (_, bset) ->
                if Relset.cardinal set < Relset.cardinal bset then Some (j, set)
                else best
            else best)
          None (Plan.joins_bottom_up plan)
      in
      match candidate with
      | None -> ()
      | Some (j, _) ->
        List.iter
          (fun s ->
            Hashtbl.replace overrides s
              (float_of_int (Oracle.true_card oracle s)))
          (subtree_sets (Plan.Join j) []);
        iterate (i + 1)
    end
  in
  iterate 0;
  Buffer.contents buf

let fig5 ~jobs lab =
  let perfect =
    Runner.run_grid ~jobs
      ~queries:(List.map (Runner.query lab) fig5_queries)
      lab [ Runner.Perfect_all ]
    |> List.assoc Runner.Perfect_all
  in
  Pretty.heading
    "Figure 5: iterative (LEO-style) estimate correction on 16b, 25c, 30a"
  ^ "\n"
  ^ String.concat "\n" (List.map (fig5_one lab) perfect)

(* ---- Figure 6 ---- *)

let fig6 ~jobs:_ lab =
  let name = "16b" in
  let q = Runner.query lab name in
  let session = Runner.session lab in
  let catalog = Session.catalog session in
  let outcome =
    Reopt.run ~cleanup:false ~initial:(Runner.prepared_of lab q) session
      ~trigger:(Rdb_core.Trigger.create 32.0) ~mode:Estimator.Default q
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Pretty.heading "Figure 6: the re-optimization rewrite, as SQL");
  Buffer.add_string buf "\n-- Original query\n";
  Buffer.add_string buf
    (Option.value ~default:"" (Rdb_imdb.Job_queries.sql_of name));
  Buffer.add_string buf "\n";
  let rec steps q_before = function
    | [] -> ()
    | (step : Reopt.step) :: rest ->
      let cols = Reopt.needed_cols q_before step.Reopt.materialized_set in
      Buffer.add_string buf
        (Printf.sprintf
           "\n-- Re-optimization step: q-error %.0f at {%s} (%d rows materialized)\n"
           step.Reopt.trigger_q_error
           (String.concat ", " step.Reopt.materialized_aliases)
           step.Reopt.temp_rows);
      Buffer.add_string buf
        (Unparse.create_temp_table catalog q_before
           ~set:step.Reopt.materialized_set ~temp_name:step.Reopt.temp_name
           ~cols);
      Buffer.add_string buf "\n";
      steps step.Reopt.query_after rest
  in
  steps q outcome.Reopt.steps;
  Buffer.add_string buf "\n-- Final SELECT\n";
  Buffer.add_string buf (Unparse.query catalog outcome.Reopt.final_query);
  Buffer.add_string buf "\n";
  (* Drop the temp tables we kept alive for rendering. *)
  List.iter
    (fun (step : Reopt.step) -> Session.drop_temp session step.Reopt.temp_name)
    outcome.Reopt.steps;
  Buffer.contents buf

(* ---- Figure 7 ---- *)

let fig7 ~jobs lab =
  let thresholds = [ 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0; 256.0 ] in
  let configs =
    (Runner.Default :: List.map (fun thr -> Runner.Reopt thr) thresholds)
    @ [ Runner.Perfect_all ]
  in
  Pretty.heading
    "Figure 7: whole-workload planning + execution across re-optimization thresholds"
  ^ "\n"
  ^ config_table (Runner.run_grid ~jobs lab configs)
  ^ "\n"

(* ---- Figure 8 ---- *)

let fig8 ~jobs lab =
  let sweep =
    List.mapi
      (fun n plain ->
        let reopt =
          if n = 0 then Runner.Reopt 32.0 else Runner.Perfect_reopt (n, 32.0)
        in
        (n, plain, reopt))
      (perfect_sweep lab)
  in
  let grid =
    Runner.run_grid ~jobs lab
      (List.concat_map (fun (_, plain, reopt) -> [ plain; reopt ]) sweep)
  in
  let exec config = fmt_total (Runner.total_exec_ms (List.assoc config grid)) in
  let rows =
    List.map
      (fun (n, plain, reopt) -> [ perfect_label n; exec plain; exec reopt ])
      sweep
  in
  Pretty.heading
    "Figure 8: total execution (s), perfect-(n) with and without re-optimization"
  ^ "\n"
  ^ Pretty.table
      ~headers:[ "estimates"; "exec (s)"; "exec + reopt-32 (s)" ]
      rows
  ^ "\n"

(* ---- Figure 9 ---- *)

let fig9 ~jobs lab =
  let default =
    Runner.run_grid ~jobs lab
      [ Runner.Default; Runner.Reopt 32.0; Runner.Perfect_all ]
    |> List.assoc Runner.Default
  in
  let sorted =
    List.sort
      (fun (a : Runner.measurement) b ->
        Float.compare a.Runner.m_exec_ms b.Runner.m_exec_ms)
      default
  in
  let rows =
    List.map
      (fun (m : Runner.measurement) ->
        let q = Runner.query lab m.Runner.m_query in
        let reopt = Runner.run_query lab (Runner.Reopt 32.0) q in
        let perfect = Runner.run_query lab Runner.Perfect_all q in
        [
          m.Runner.m_query;
          Printf.sprintf "%.1f%s" m.Runner.m_exec_ms
            (if m.Runner.m_capped then "+" else "");
          Printf.sprintf "%.1f" reopt.Runner.m_exec_ms;
          Printf.sprintf "%.1f" perfect.Runner.m_exec_ms;
        ])
      sorted
  in
  Pretty.heading
    "Figure 9: per-query execution (ms), ordered by default execution time"
  ^ "\n"
  ^ Pretty.table
      ~headers:[ "query"; "default"; "reopt-32"; "perfect" ]
      rows
  ^ "\n('+' marks executions cut off by the runaway-work budget)\n"


(* ---- CORDS ablation (paper SS IV-B) ---- *)

(* The paper's age/salary example: same-table correlation is fixable with
   column-group statistics, but a correlation sitting across a join edge
   ("join-crossing") is invisible to them. *)
let cords ~jobs:_ _ =
  let prng = Rdb_util.Prng.create 99 in
  let n = 50_000 in
  let ages = Array.init n (fun _ -> 20 + Rdb_util.Prng.int prng 45) in
  (* salary band is (almost) a function of age: strong correlation *)
  let bands =
    Array.map
      (fun age ->
        if Rdb_util.Prng.float prng 1.0 < 0.9 then (age - 20) / 9
        else Rdb_util.Prng.int prng 5)
      ages
  in
  let catalog = Catalog.create () in
  Catalog.add_table catalog
    (Table.create ~name:"employee"
       ~schema:
         (Schema.make
            [
              { Schema.name = "id"; ty = Value.Ty_int };
              { Schema.name = "age"; ty = Value.Ty_int };
              { Schema.name = "salary_band"; ty = Value.Ty_int };
            ])
       [|
         Column.Ints (Array.init n (fun i -> i + 1));
         Column.Ints ages;
         Column.Ints bands;
       |]);
  (* bonus lives in another table: the same correlation, one join away *)
  Catalog.add_table catalog
    (Table.create ~name:"compensation"
       ~schema:
         (Schema.make
            [
              { Schema.name = "employee_id"; ty = Value.Ty_int };
              { Schema.name = "bonus_band"; ty = Value.Ty_int };
            ])
       [|
         Column.Ints (Array.init n (fun i -> i + 1));
         Column.Ints (Array.copy bands);
       |]);
  Catalog.add_index catalog ~table:"employee" ~col:0;
  Catalog.add_index catalog ~table:"compensation" ~col:0;
  let session = Session.create catalog in
  Session.analyze session;
  let stats = Session.stats session in
  let emp = Catalog.table_exn catalog "employee" in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Pretty.heading "CORDS ablation: column-group statistics vs join-crossing correlation");
  (* discovery *)
  let findings = Rdb_stats.Cords.discover ~threshold:0.2 emp in
  Buffer.add_string buf "\ndiscovered correlated pairs in employee:\n";
  List.iter
    (fun (f : Rdb_stats.Cords.finding) ->
      Buffer.add_string buf
        (Printf.sprintf "  (col %d, col %d) strength %.1f\n" f.Rdb_stats.Cords.col_a
           f.Rdb_stats.Cords.col_b f.Rdb_stats.Cords.strength))
    findings;
  let same_table =
    "SELECT COUNT(*) FROM employee AS e \
     WHERE e.age >= 56 AND e.salary_band = 4;"
  in
  let crossing =
    "SELECT COUNT(*) FROM employee AS e, compensation AS c \
     WHERE e.age >= 56 AND c.bonus_band = 4 AND e.id = c.employee_id;"
  in
  let est0, actual0 = estimate session same_table in
  Buffer.add_string buf
    (Printf.sprintf
       "\nsame-table correlated predicates (independence assumption):\n  est %.0f vs actual %d (%.0fx off)\n"
       est0 actual0 (float_of_int actual0 /. Float.max 1.0 est0));
  (* create the column-group statistics CORDS recommends *)
  Rdb_stats.Db_stats.set_group stats ~table:"employee"
    (Rdb_stats.Group_stats.build ~slots:300 emp 1 2);
  let est1, actual1 = estimate session same_table in
  Buffer.add_string buf
    (Printf.sprintf
       "same-table with column-group statistics:\n  est %.0f vs actual %d (%.1fx off) -- fixed\n"
       est1 actual1
       (Rdb_util.Stat_utils.q_error ~est:est1 ~actual:(float_of_int actual1)));
  let est2, actual2 = estimate session crossing in
  Buffer.add_string buf
    (Printf.sprintf
       "\nthe SAME correlation across a join edge (paper: CORDS cannot see it):\n  est %.0f vs actual %d (%.0fx off) -- still wrong\n"
       est2 actual2 (float_of_int actual2 /. Float.max 1.0 est2));
  Buffer.contents buf


(* ---- sampling-based estimation (SS II-C) ---- *)

let sampling ~jobs lab =
  Pretty.heading
    "Sampling ablation: index-based join sampling vs default, re-opt and perfect"
  ^ "\n"
  ^ config_table
      (Runner.run_grid ~jobs lab
         [
           Runner.Default;
           Runner.Sampling_est 128;
           Runner.Sampling_est 512;
           Runner.Sampling_est 2048;
           Runner.Reopt 32.0;
           Runner.Perfect_all;
         ])
  ^ "\n(planning time includes the sampling probes -- the cost SS II-C warns about)\n"


(* ---- Rio-style proactive planning (SS V / conclusion) ---- *)

let robust ~jobs lab =
  Pretty.heading
    "Robust-planning ablation: Rio-style worst-case plans vs default, re-opt, perfect"
  ^ "\n"
  ^ config_table
      (Runner.run_grid ~jobs lab
         [
           Runner.Default;
           Runner.Robust 2.0;
           Runner.Robust 4.0;
           Runner.Robust 8.0;
           Runner.Reopt 32.0;
           Runner.Perfect_all;
         ])
  ^ "\n(robust plans hedge against under-estimates at plan time; re-optimization repairs them at run time)\n"


(* ---- q-error growth with join size (SS IV) ---- *)

let qerror ~jobs:_ lab =
  let by_size : (int, float list ref) Hashtbl.t = Hashtbl.create 18 in
  List.iter
    (fun q ->
      let prepared = Runner.prepared_of lab q in
      let oracle = Session.oracle prepared in
      Oracle.ensure_up_to oracle (Query.n_rels q);
      let estimator =
        Estimator.create ~mode:Estimator.Default
          ~catalog:(Session.catalog (Runner.session lab))
          ~stats:(Session.stats (Runner.session lab))
          q
      in
      let graph = Join_graph.make q in
      List.iter
        (fun s ->
          let est = Estimator.card estimator s in
          let actual = float_of_int (Oracle.true_card oracle s) in
          let err = Stat_utils.q_error ~est ~actual in
          let size = Relset.cardinal s in
          match Hashtbl.find_opt by_size size with
          | Some l -> l := err :: !l
          | None -> Hashtbl.add by_size size (ref [ err ]))
        (Join_graph.connected_subsets graph))
    (Runner.queries lab);
  let sizes =
    Hashtbl.fold (fun k _ acc -> k :: acc) by_size [] |> List.sort Int.compare
  in
  let rows =
    List.map
      (fun size ->
        let errs = !(Hashtbl.find by_size size) in
        [
          string_of_int size;
          string_of_int (List.length errs);
          Printf.sprintf "%.1f" (Stat_utils.percentile 50.0 errs);
          Printf.sprintf "%.1f" (Stat_utils.percentile 95.0 errs);
          Printf.sprintf "%.0f" (Stat_utils.percentile 100.0 errs);
        ])
      sizes
  in
  Pretty.heading
    "Q-error of the default estimator by join size (SS IV: errors grow with joins)"
  ^ "\n"
  ^ Pretty.table
      ~headers:[ "# tables"; "# estimates"; "median"; "p95"; "max" ]
      rows
  ^ "\n"

(* ---- LEO feedback loop (SS IV-E) ---- *)

let leo ~jobs lab =
  let feedback = Rdb_core.Feedback.create () in
  let catalog = Session.catalog (Runner.session lab) in
  let run_pass ~learn ~use =
    List.fold_left
      (fun acc q ->
        let prepared = Runner.prepared_of lab q in
        let mode =
          if use then Session.feedback_mode prepared feedback
          else Estimator.Default
        in
        let plan, _, _ = Session.plan prepared ~mode in
        let exec_ms =
          try
            let res =
              (* learn:false — this experiment's private store, not the
                 session's, decides what is remembered per pass. *)
              Session.execute ~work_budget:(Runner.work_budget lab)
                ~deadline_ms:(Runner.deadline_ms lab) ~learn:false prepared plan
            in
            if learn then Rdb_core.Feedback.observe feedback ~catalog q res;
            res.Executor.elapsed_ms
          with Executor.Work_budget_exceeded { elapsed_ms; _ } -> elapsed_ms
        in
        acc +. exec_ms)
      0.0 (Runner.queries lab)
  in
  let pass1 = run_pass ~learn:true ~use:false in
  let pass2 = run_pass ~learn:true ~use:true in
  let pass3 = run_pass ~learn:true ~use:true in
  let perfect =
    Runner.run_grid ~jobs lab [ Runner.Perfect_all ]
    |> List.assoc Runner.Perfect_all |> Runner.total_exec_ms
  in
  Pretty.heading "LEO-style feedback loop (SS IV-E): learning from executions"
  ^ "\n"
  ^ Pretty.series ~title:"workload execution (s) per pass"
      [
        ("pass 1 (default, learning)", pass1 /. 1000.0);
        ("pass 2 (learned overrides)", pass2 /. 1000.0);
        ("pass 3 (learned overrides)", pass3 /. 1000.0);
        ("perfect-(17)", perfect /. 1000.0);
      ]
  ^ Printf.sprintf "\n%d sub-join cardinalities remembered\n"
      (Rdb_core.Feedback.size feedback)


(* ---- persistent feedback store, naive vs gated (SS IV-E / SS V) ---- *)

let feedback ~jobs lab =
  let r = Feedback_sweep.run ~jobs lab in
  let total get =
    List.fold_left
      (fun acc row -> acc +. (get row).Runner.m_exec_ms)
      0.0 r.Feedback_sweep.fr_rows
    /. 1000.0
  in
  let count_list name = function
    | [] -> Printf.sprintf "%s: none" name
    | l ->
      Printf.sprintf "%s: %s" name
        (String.concat ", "
           (List.map (fun (q, ratio) -> Printf.sprintf "%s (%.1fx)" q ratio) l))
  in
  Pretty.heading
    "Feedback corrections, naive vs fragility-gated (SS IV-E: corrections can hurt)"
  ^ "\n"
  ^ Pretty.series ~title:"workload execution (s) per estimation mode"
      [
        ("default", total (fun row -> row.Feedback_sweep.fs_default));
        ("naive feedback", total (fun row -> row.Feedback_sweep.fs_naive));
        ("gated feedback", total (fun row -> row.Feedback_sweep.fs_gated));
        ( Printf.sprintf "perfect-(%d)" r.Feedback_sweep.fr_perfect_n,
          total (fun row -> row.Feedback_sweep.fs_perfect) );
      ]
  ^ "\n"
  ^ count_list "naive materially worse"
      r.Feedback_sweep.fr_naive_regressions
  ^ "\n"
  ^ count_list "gated materially worse"
      r.Feedback_sweep.fr_gated_regressions
  ^ "\n"
  ^ Printf.sprintf
      "%d corrections remembered; dp pairs default/naive/gated %d/%d/%d; \
       %d store probes (bound %d)\n"
      r.Feedback_sweep.fr_store_size r.Feedback_sweep.fr_default_pairs
      r.Feedback_sweep.fr_naive_pairs r.Feedback_sweep.fr_gated_pairs
      r.Feedback_sweep.fr_naive_lookups r.Feedback_sweep.fr_lookup_bound

(* ---- adaptive operator selection (SS II-D) ---- *)

let adaptive ~jobs lab =
  Pretty.heading
    "Adaptive-execution ablation: runtime operator switching vs re-optimization"
  ^ "\n"
  ^ config_table ~columns:[ exec_s ]
      (Runner.run_grid ~jobs lab
         [ Runner.Default; Runner.Adaptive; Runner.Reopt 32.0; Runner.Perfect_all ])
  ^ "\n(operator switching cannot change join order -- SS II-D's limitation -- so it recovers\n only part of what re-optimization does)\n"

(* ---- driver ---- *)

let named =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table6", table6);
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3_4", fig3_4);
    ("skew", skew);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("cords", cords);
    ("sampling", sampling);
    ("robust", robust);
    ("qerror", qerror);
    ("leo", leo);
    ("feedback", feedback);
    ("adaptive", adaptive);
  ]

let names = List.map fst named

let run ?(jobs = 1) lab name =
  match List.assoc_opt name named with
  | Some f ->
    Rdb_obs.Trace.span "experiment" ~attrs:[ ("name", name) ] (fun () ->
        f ~jobs lab)
  | None -> invalid_arg ("Experiments.run: unknown experiment " ^ name)
