(* The reoptdb command-line interface.

     reoptdb queries                    list the workload
     reoptdb sql 16b                    print a query's SQL
     reoptdb explain 6d [--analyze]     EXPLAIN with true cardinalities; with
                                        --analyze, execute (EXPLAIN ANALYZE)
     reoptdb run 6d [--reopt 32]        execute, optionally with re-optimization
     reoptdb experiment NAME...|all     regenerate the paper's tables/figures
     reoptdb lint [--source]            lint every workload query and plan
     reoptdb verify                     prove every re-opt rewrite equivalent
                                        and every plan within sound bounds
     reoptdb resources [--budget S]     certify every plan's memory and work
     reoptdb fragility                  which estimates each plan depends on
     reoptdb feedback                   naive vs fragility-gated LEO feedback
     reoptdb serve --port 7878          the query service, over a socket
     reoptdb racecheck                  source-level concurrency lint
     reoptdb exnflow                    source-level exception-flow lint
     reoptdb json-check report.json     strictly validate a JSON report

   The common flags are defined once and mean the same on every command
   that takes them: --scale, --seed, --json PATH, --reopt, --perfect,
   --jobs. The serving benchmark is the ledger's serve-hot workload (see
   ledger/README.md).

   Exit codes are uniform across the analysis commands (lint, verify,
   resources, fragility, feedback, racecheck, exnflow, json-check): 0
   clean, 1 error-severity findings, 2 usage error (a bad flag, an unknown
   query or experiment name).

   Set RDB_TRACE=stderr (or =path for JSON-lines) to trace every pipeline
   phase as nested timed spans.
   Set RDB_CHECKS=lint,verify,sensitivity,resource (any subset) to run
   those invariant checks on every plan and re-optimization step; a
   malformed value is a usage error. *)

open Cmdliner

module Session = Rdb_core.Session
module Estimator = Rdb_card.Estimator
module Oracle = Rdb_card.Oracle
module Executor = Rdb_exec.Executor
module Reopt = Rdb_core.Reopt
module Trigger = Rdb_core.Trigger
module Checks = Rdb_core.Checks
module Finding = Rdb_analysis.Finding
module Srclint = Rdb_srclint.Srclint
module J = Rdb_obs.Json
module Clock = Rdb_obs.Clock

(* ---- common flags ---- *)

let scale_arg default =
  Arg.(value & opt float default & info [ "scale" ] ~docv:"FACTOR"
         ~doc:"Database scale factor (1.0 = default benchmark size).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Data generator seed.")

let json_arg =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH"
         ~doc:"Also write the command's full report as JSON to PATH.")

(* Absent --reopt means "no re-optimization" on run and serve; every other
   command sweeps or marks a trigger, at the paper's best threshold by
   default. *)
let reopt_opt =
  Arg.(value & opt (some float) None & info [ "reopt" ] ~docv:"THRESHOLD"
         ~doc:"Q-error threshold of the re-optimization trigger. On run and \
               serve it enables re-optimization; elsewhere it defaults to \
               32.")

let reopt_arg = Term.(const (Option.value ~default:32.0) $ reopt_opt)

let perfect_arg =
  Arg.(value & opt int 4 & info [ "perfect" ] ~docv:"N"
         ~doc:"Size of the perfect-(N) estimator configuration.")

let jobs_arg default =
  let resolve jobs = if jobs = 0 then Rdb_util.Pool.default_jobs () else jobs in
  Term.(
    const resolve
    $ Arg.(value & opt int default & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains (0 = one per core). Deterministic \
                   measurements are identical at any count."))

(* ---- the report path of the analysis commands ---- *)

let add_findings acc ctx findings =
  List.iter (fun (f : Finding.t) -> acc := (ctx, f) :: !acc) findings

(* Print the collected (context, finding) pairs as "ctx: finding" and
   return the error and warning counts. With [key], a finding already
   printed under the same key is dropped and the rest are sorted errors
   first, then by context and text, so CI output diffs cleanly across runs;
   without it they print in collection order. [shown] filters what is
   printed, not what is counted. *)
let print_findings ?key ?(shown = fun _ -> true) acc =
  let fs = List.rev !acc in
  let fs =
    match key with
    | None -> fs
    | Some key ->
      let seen = Hashtbl.create 256 in
      List.filter
        (fun (ctx, f) ->
          let k = (key ctx, Finding.to_string f) in
          if Hashtbl.mem seen k then false else (Hashtbl.add seen k (); true))
        fs
      |> List.stable_sort (fun (c1, f1) (c2, f2) ->
             compare
               (Finding.rank f1, c1, Finding.to_string f1)
               (Finding.rank f2, c2, Finding.to_string f2))
  in
  List.iter
    (fun (ctx, f) ->
      if shown f then Printf.printf "%s: %s\n" ctx (Finding.to_string f))
    fs;
  let count sev =
    List.length (List.filter (fun (_, (f : Finding.t)) -> f.severity = sev) fs)
  in
  (count Finding.Error, count Finding.Warning)

let exit_code n_errors = if n_errors > 0 then 1 else 0

let write_json path doc =
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (J.to_string doc);
          output_char oc '\n');
      Printf.eprintf "report written to %s\n%!" path)
    path

(* ---- sessions and estimation modes ---- *)

let mode_arg =
  let doc =
    "Estimation mode: 'default', 'perfect' or 'perfect-N' (true \
     cardinalities for joins of at most N relations), 'feedback' (serve \
     every remembered true cardinality from the feedback store) or \
     'feedback-gated' (suppress corrections the fragility analysis marks \
     as plan-flipping)."
  in
  Arg.(value & opt string "default" & info [ "mode" ] ~docv:"MODE" ~doc)

let parse_mode s =
  match String.lowercase_ascii s with
  | "default" -> Ok `Default
  | "perfect" -> Ok `Perfect_all
  | "feedback" -> Ok `Feedback
  | "feedback-gated" -> Ok `Feedback_gated
  | s ->
    (match String.index_opt s '-' with
     | Some i when String.sub s 0 i = "perfect" ->
       (try Ok (`Perfect (int_of_string (String.sub s (i + 1) (String.length s - i - 1))))
        with Failure _ -> Error ("bad mode " ^ s))
     | _ -> Error ("bad mode " ^ s))

let make_session ?feedback ~scale ~seed () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~seed ~scale () in
  let session = Session.create ?feedback catalog in
  Session.analyze session;
  (catalog, session)

let rec resolve_mode ?feedback prepared = function
  | `Default -> Estimator.Default
  | `Perfect n ->
    Oracle.ensure_up_to (Session.oracle prepared) n;
    Estimator.Perfect n
  | `Perfect_all ->
    let q = Session.query prepared in
    resolve_mode ?feedback prepared (`Perfect (Rdb_query.Query.n_rels q))
  | (`Feedback | `Feedback_gated) as m ->
    (match feedback with
     | Some fb ->
       Session.feedback_mode ~gated:(m = `Feedback_gated) prepared fb
     | None -> Estimator.Default)

(* --feedback PATH on explain/run: corrections learned by one invocation
   carry over to the next. The store is loaded before planning (silently
   starting empty when PATH does not exist yet) and saved back after the
   command ran; staleness epochs make entries recorded against different
   statistics drop out on lookup rather than mislead the planner. *)
let feedback_path_arg =
  Arg.(value & opt (some string) None & info [ "feedback" ] ~docv:"PATH"
         ~doc:"Persist the cardinality-feedback store at PATH: load \
               remembered true cardinalities before planning and save \
               newly observed ones back afterwards. Required context for \
               --mode feedback and --mode feedback-gated to have any \
               corrections to serve.")

let feedback_store_of = function
  | None -> Rdb_core.Feedback.create ()
  | Some path ->
    (match Rdb_core.Feedback.load path with
     | Some fb -> fb
     | None -> Rdb_core.Feedback.create ())

let feedback_store_save fb = function
  | None -> ()
  | Some path ->
    Rdb_core.Feedback.save fb path;
    Printf.eprintf "feedback store saved to %s (%d entries)\n%!" path
      (Rdb_core.Feedback.size fb)

(* ---- queries, sql ---- *)

let cmd_queries =
  let run () =
    List.iter (fun (name, _) -> print_endline name) Rdb_imdb.Job_queries.sql;
    0
  in
  Cmd.v (Cmd.info "queries" ~doc:"List the 113 workload queries.")
    Term.(const run $ const ())

(* An unknown name is a usage error (exit 2), caught before the database
   is generated. *)
let query_pos =
  let parse name =
    match Rdb_imdb.Job_queries.sql_of name with
    | Some _ -> Ok name
    | None -> Error (`Msg ("unknown query " ^ name))
  in
  Arg.(required
       & pos 0 (some (conv (parse, Format.pp_print_string))) None
       & info [] ~docv:"QUERY" ~doc:"Workload query name, e.g. 6d or 16b.")

let cmd_sql =
  let run name =
    print_endline (Option.get (Rdb_imdb.Job_queries.sql_of name));
    0
  in
  Cmd.v (Cmd.info "sql" ~doc:"Print a workload query's SQL text.")
    Term.(const run $ query_pos)

(* ---- explain, run ---- *)

let pessimistic_arg =
  Arg.(value & flag & info [ "pessimistic" ]
         ~doc:"Clamp every cardinality estimate to the symbolic verifier's \
               sound [lo, hi] interval before costing. Changes plan choice \
               only, never query results.")

(* explain and run share their set-up: parse --mode, load the --feedback
   store, build the database and prepare the query. Once [k] has printed
   its result, the store is saved back. *)
let with_query_arg =
  let with_query name scale seed mode_str feedback_path k =
    match parse_mode mode_str with
    | Error e -> prerr_endline e; 2
    | Ok mode ->
      let fb = feedback_store_of feedback_path in
      let catalog, session = make_session ~feedback:fb ~scale ~seed () in
      let q = Rdb_imdb.Job_queries.find catalog name in
      let prepared = Session.prepare session q in
      k ~catalog ~session q prepared (resolve_mode ~feedback:fb prepared mode);
      feedback_store_save fb feedback_path;
      Rdb_obs.Trace.flush ();
      0
  in
  Term.(const with_query $ query_pos $ scale_arg 0.3 $ seed_arg $ mode_arg
        $ feedback_path_arg)

let print_aggs aggs =
  List.iter (fun v -> print_endline ("  " ^ Value.to_string v)) aggs

let cmd_explain =
  let analyze_arg =
    Arg.(value & flag & info [ "analyze" ]
           ~doc:"Execute the plan and annotate every operator with its \
                 actual row count, Q-error, adaptive switches, and the \
                 join the re-optimization trigger would materialize.")
  in
  let adaptive_arg =
    Arg.(value & flag & info [ "adaptive" ]
           ~doc:"With --analyze: execute with Cuttlefish-style runtime \
                 operator switching, so demotions show in the output.")
  in
  let bounds_arg =
    Arg.(value & flag & info [ "bounds" ]
           ~doc:"Print the symbolic verifier's sound cardinality interval \
                 next to each operator's estimated (and actual) rows.")
  in
  let run with_query analyze adaptive threshold pessimistic bounds =
    with_query (fun ~catalog ~session q prepared mode ->
        let plan, pstats, _ = Session.plan ~pessimistic prepared ~mode in
        Printf.printf "planning: %d csg-cmp pairs, %.2fms\n\n"
          pstats.Rdb_plan.Optimizer.pairs_considered
          pstats.Rdb_plan.Optimizer.plan_ms;
        if analyze then begin
          let res = Session.execute ~adaptive prepared plan in
          print_string
            (Rdb_core.Explain_analyze.render ~bounds
               ~trigger:(Trigger.create threshold) prepared plan res);
          print_aggs res.Executor.aggs
        end
        else begin
          let oracle = Session.oracle prepared in
          let notes =
            if not bounds then fun _ -> []
            else begin
              let ctx =
                Rdb_verify.Card_bound.create ~catalog
                  ~stats:(Session.stats session) q
              in
              fun set ->
                let lo, hi = Rdb_verify.Card_bound.interval ctx set in
                [ Printf.sprintf "bounds=[%.0f, %.0f]" lo hi ]
            end
          in
          print_string
            (Rdb_plan.Explain.render
               ~actuals:(fun set -> Some (Oracle.true_card oracle set))
               ~notes q plan)
        end)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Plan a query and print EXPLAIN with true cardinalities; with \
          --analyze, execute it and print EXPLAIN ANALYZE (actual rows, \
          Q-error, work, adaptive switches, the join the --reopt trigger \
          would materialize); with --bounds, show the verifier's sound \
          cardinality interval per operator. With --analyze and --feedback \
          PATH, observed true cardinalities are persisted for later \
          feedback-mode planning.")
    Term.(const run $ with_query_arg $ analyze_arg $ adaptive_arg $ reopt_arg
          $ pessimistic_arg $ bounds_arg)

let cmd_run =
  let run with_query reopt pessimistic =
    with_query (fun ~catalog:_ ~session q prepared mode ->
        match reopt with
        | None ->
          let plan, pstats, _ = Session.plan ~pessimistic prepared ~mode in
          let res = Session.execute prepared plan in
          Printf.printf
            "plan %.2fms | exec %.2fms | %d rows into aggregates | work %d\n"
            pstats.Rdb_plan.Optimizer.plan_ms res.Executor.elapsed_ms
            res.Executor.out_rows res.Executor.work;
          print_aggs res.Executor.aggs
        | Some threshold ->
          let outcome =
            Reopt.run ~initial:prepared session
              ~trigger:(Trigger.create threshold) ~mode q
          in
          Printf.printf
            "reopt steps %d | plan %.2fms | exec %.2fms (materializations included)\n"
            (List.length outcome.Reopt.steps)
            outcome.Reopt.total_plan_ms outcome.Reopt.total_exec_ms;
          List.iter
            (fun (s : Reopt.step) ->
              Printf.printf "  step: {%s} -> %s (%d rows, q-error %.0f)\n"
                (String.concat "," s.Reopt.materialized_aliases)
                s.Reopt.temp_name s.Reopt.temp_rows s.Reopt.trigger_q_error)
            outcome.Reopt.steps;
          print_aggs outcome.Reopt.final_exec.Executor.aggs)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a query, optionally with re-optimization. With --feedback \
          PATH, true cardinalities observed during execution (including \
          those paid for by re-optimization's materializations, re-keyed \
          to the original query) persist across invocations.")
    Term.(const run $ with_query_arg $ reopt_opt $ pessimistic_arg)

(* ---- experiment ---- *)

let cmd_experiment =
  let module Experiments = Rdb_harness.Experiments in
  let module Metrics = Rdb_obs.Metrics in
  let names_arg =
    let names = "all" :: Experiments.names in
    Arg.(non_empty
         & pos_all (enum (List.map (fun n -> (n, n)) names)) []
         & info [] ~docv:"NAME"
             ~doc:(Printf.sprintf "Experiments to run, in order: %s; or all."
                     (String.concat ", " Experiments.names)))
  in
  let run names scale seed jobs json_path =
    let names = if List.mem "all" names then Experiments.names else names in
    let lab = Rdb_harness.Runner.create_lab ~seed ~scale () in
    (* Per-experiment engine counters (plans built, DP pairs, re-opt
       steps, work, switches) plus run totals: deterministic at a fixed
       scale and seed, so reports are comparable across commits. Only the
       elapsed seconds are wall-clock. *)
    let reports =
      List.map
        (fun name ->
          let t0 = Clock.now_ms () and before = Metrics.snapshot () in
          print_endline (Experiments.run ~jobs lab name);
          let elapsed = Clock.ms_since t0 /. 1000.0 in
          Printf.eprintf "[%s done in %.1fs]\n%!" name elapsed;
          let deltas =
            Metrics.diff_counters ~after:(Metrics.snapshot ()) ~before
          in
          J.Obj
            [ ("name", J.Str name);
              ("elapsed_s", J.Float elapsed);
              ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) deltas)) ])
        names
    in
    write_json json_path
      (J.Obj
         [ ( "meta",
             J.Obj
               [ ("scale", J.Float scale);
                 ("seed", J.Int seed);
                 ("jobs", J.Int jobs) ] );
           ("experiments", J.List reports);
           ("totals", Metrics.to_json (Metrics.snapshot ())) ]);
    0
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Regenerate the paper's tables and figures (see DESIGN.md for the \
          index). --jobs shards each experiment's (config, query) grid \
          across domains; work units, caps and re-optimization steps are \
          identical to a sequential run, only wall-clock figures move.")
    Term.(const run $ names_arg $ scale_arg 0.3 $ seed_arg $ jobs_arg 1
          $ json_arg)

(* ---- lint, resources, verify ---- *)

(* The re-optimization pass of the lint and verify sweeps: budgeted like
   the experiments, with the temp tables kept in the catalog while [k]
   inspects the outcome and dropped afterwards. *)
let reopt_sweep ?checks ~threshold session prepared q k =
  let outcome =
    Reopt.run ?checks ~work_budget:60_000_000 ~deadline_ms:4000.0 ~cleanup:false
      ~initial:prepared session ~trigger:(Trigger.create threshold)
      ~mode:Estimator.Default q
  in
  k outcome;
  List.iter
    (fun (s : Reopt.step) ->
      Catalog.drop_table (Session.catalog session) s.Reopt.temp_name;
      Rdb_stats.Db_stats.drop (Session.stats session) ~table:s.Reopt.temp_name)
    outcome.Reopt.steps

let cmd_lint =
  let module Query_lint = Rdb_analysis.Query_lint in
  let module Plan_lint = Rdb_analysis.Plan_lint in
  let source_arg =
    Arg.(value & flag & info [ "source" ]
           ~doc:"Also run the source-level concurrency analyzer (racecheck) \
                 over the repository's lib/ tree and merge its findings, \
                 with the same dedupe and stable sort.")
  in
  let run scale seed threshold perfect_n source =
    let catalog, session = make_session ~scale ~seed () in
    let queries = Rdb_imdb.Job_queries.all catalog in
    let n_plans = ref 0 and n_steps = ref 0 and n_capped = ref 0 in
    let collected = ref [] in
    let report = add_findings collected in
    List.iter
      (fun (q : Rdb_query.Query.t) ->
        let name = q.Rdb_query.Query.name in
        report name (Query_lint.check ~catalog q);
        let prepared = Session.prepare session q in
        (* Planned configurations: lint each chosen plan against a fresh
           estimator query. *)
        List.iter
          (fun (label, mode) ->
            (match mode with
             | Estimator.Perfect n ->
               Oracle.ensure_up_to (Session.oracle prepared) n
             | _ -> ());
            match Session.plan prepared ~mode with
            | plan, _, est ->
              incr n_plans;
              report
                (Printf.sprintf "%s [%s]" name label)
                (Plan_lint.check ~catalog ~estimator:est q plan);
              (* Third finding source, on the default config only: the
                 plan-robustness analyzer, with a few corner replans to
                 surface joins whose estimate the plan choice hinges on. *)
              if mode = Estimator.Default then begin
                report
                  (Printf.sprintf "%s [%s]" name label)
                  (Rdb_analysis.Sensitivity.check ~threshold
                     ~corner_replans:true ~corner_limit:4
                     ~space:(Session.space prepared) ~catalog ~estimator:est
                     q plan);
                (* Fourth finding source: the static resource certifier —
                   well-formedness of the sound memory/work envelope (the
                   full certified-vs-observed sweep is `reoptdb
                   resources`). *)
                let cert = Session.certify ~estimator:est prepared plan in
                report
                  (Printf.sprintf "%s [%s]" name label)
                  (Rdb_analysis.Resource.findings q cert)
              end
            (* With RDB_CHECKS set the inline checks raise before we can
               report; keep sweeping the other configs. *)
            | exception Checks.Check_failed (_, findings) ->
              report (Printf.sprintf "%s [%s]" name label) findings)
          [ ("default", Estimator.Default);
            (Printf.sprintf "perfect-%d" perfect_n,
             Estimator.Perfect perfect_n) ];
        (* Re-optimization sweep: with the Lint check every intermediate
           plan and every rewritten query is invariant-checked in the loop
           itself (raising on error findings); on success, re-lint the
           rewrite steps here to surface warning-severity findings too. *)
        (match
           reopt_sweep ~checks:(Checks.Lint :: Checks.env ()) ~threshold
             session prepared q (fun outcome ->
               incr n_plans;
               List.iter
                 (fun (s : Reopt.step) ->
                   incr n_steps;
                   report
                     (Printf.sprintf "%s [reopt step %s]" name s.Reopt.temp_name)
                     (Query_lint.check ~catalog s.Reopt.query_after))
                 outcome.Reopt.steps;
               report
                 (Printf.sprintf "%s [reopt final]" name)
                 (Plan_lint.check ~catalog outcome.Reopt.final_query
                    outcome.Reopt.final_plan))
         with
         | () -> ()
         | exception Executor.Work_budget_exceeded _ -> incr n_capped
         | exception Checks.Check_failed (_, findings) ->
           report (Printf.sprintf "%s [reopt]" name) findings))
      queries;
    (* Fifth and sixth finding sources, opt-in: the source-level
       concurrency and exception-flow analyzers over the repository's own
       .ml tree. Context is the space-free "file:line" so the dedupe key
       stays per-site; annotation-hygiene findings appear in both reports
       with identical site and message, so the key folds them. *)
    let n_source_files = ref 0 in
    if source then begin
      match Srclint.find_default_root () with
      | None ->
        report "source"
          [ Finding.warning ~code:"src-no-root"
              "cannot locate the repository's lib/ tree for --source" ]
      | Some root ->
        let races = Srclint.analyze_tree Srclint.Racecheck ~root () in
        let flows = Srclint.analyze_tree Srclint.Exnflow ~root () in
        n_source_files := List.length races.Srclint.files;
        List.iter
          (fun (i : Srclint.item) ->
            report (Printf.sprintf "%s:%d" i.file i.line) [ i.finding ])
          (races.Srclint.items @ flows.Srclint.items)
    end;
    (* The same finding reported for the same query by several hooks or
       configs is one finding: the config label after the first space of
       the context does not make it a different one. *)
    let base ctx =
      match String.index_opt ctx ' ' with
      | Some i -> String.sub ctx 0 i
      | None -> ctx
    in
    let n_errors, n_warnings = print_findings ~key:base collected in
    Printf.printf
      "lint: %d queries, %d plans, %d rewrite steps%s checked (%d runaway \
       cells capped); %d errors, %d warnings\n"
      (List.length queries) !n_plans !n_steps
      (if source then Printf.sprintf ", %d source files" !n_source_files
       else "")
      !n_capped n_errors n_warnings;
    exit_code n_errors
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Sweep the whole workload through the default, perfect-(n) and \
          re-optimization configurations and report static-analysis \
          findings on every query, plan and rewrite step — including the \
          plan-robustness analyzer's interval-sensitivity findings on the \
          default config. Output is deduplicated and sorted by severity \
          then query for stable CI diffs. With --source, the source-level \
          concurrency and exception-flow analyzers' findings on the \
          repository's own lib/ tree are merged in. Exits non-zero on \
          error-severity findings.")
    Term.(const run $ scale_arg 0.1 $ seed_arg $ reopt_arg $ perfect_arg
          $ source_arg)

(* ---- resources ---- *)

let cmd_resources =
  let module Resource = Rdb_analysis.Resource in
  let module Interval = Rdb_cost.Interval in
  let budget_arg =
    Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"SLOTS"
           ~doc:"Report an error finding for every query whose certified \
                 peak memory exceeds SLOTS row-slots — the admission \
                 decision `reoptdb serve --mem-budget` would make, as an \
                 offline sweep.")
  in
  let run scale seed threshold budget json_path =
    let catalog, session = make_session ~scale ~seed () in
    let queries = Rdb_imdb.Job_queries.all catalog in
    let t0 = Clock.now_ms () in
    let collected = ref [] in
    let report = add_findings collected in
    let n_capped = ref 0 and n_thrash = ref 0 and rows = ref [] in
    (* Tolerance for holding integer executor counters against float
       interval endpoints. *)
    let slack = 0.5 in
    List.iter
      (fun (q : Rdb_query.Query.t) ->
        let name = q.Rdb_query.Query.name in
        let prepared = Session.prepare session q in
        let plan, _, estimator = Session.plan prepared ~mode:Estimator.Default in
        let cert =
          Session.certify ~transitions:true ~threshold ~estimator prepared plan
        in
        report name (Resource.findings ?budget q cert);
        (match cert.Resource.cert_reopt with
         | Some ro when ro.Resource.ro_thrashing <> None -> incr n_thrash
         | Some _ | None -> ());
        (* Dynamic validation: the certificate must dominate a real
           (non-adaptive) execution. A capped run still observed a prefix
           of the full execution, so hi-bounds apply; lo-bounds only
           constrain complete runs. *)
        let unsound what v (i : Interval.t) ~capped =
          let v = float_of_int v in
          let escape verb side bound =
            [ Finding.error ~code:"resource-cert-unsound"
                (Printf.sprintf "observed %s %.0f %s certified %s-bound %.1f"
                   what v verb side bound) ]
          in
          (if (not capped) && v < i.Interval.lo -. slack then
             escape "undercuts" "lo" i.Interval.lo
           else [])
          @
          if v > i.Interval.hi +. slack then escape "exceeds" "hi" i.Interval.hi
          else []
        in
        let peak, work, capped =
          match
            Session.execute ~work_budget:60_000_000 ~deadline_ms:4000.0
              prepared plan
          with
          | res ->
            List.iter
              (fun (what, v, i) -> report name (unsound what v i ~capped:false))
              [ ("work", res.Executor.work, cert.Resource.cert_work);
                ("peak memory", res.Executor.peak_rows, cert.Resource.cert_mem);
                ("output rows", res.Executor.out_rows, cert.Resource.cert_out) ];
            (res.Executor.peak_rows, res.Executor.work, false)
          | exception Executor.Work_budget_exceeded { spent; _ } ->
            incr n_capped;
            report name
              (unsound "work" spent cert.Resource.cert_work ~capped:true);
            (0, spent, true)
        in
        let iv_doc (i : Interval.t) =
          J.Obj [ ("lo", J.Float i.Interval.lo); ("hi", J.Float i.Interval.hi) ]
        in
        rows :=
          J.Obj
            ([ ("query", J.Str name);
               ("shape", J.Str cert.Resource.cert_shape);
               ("mem", iv_doc cert.Resource.cert_mem);
               ("work", iv_doc cert.Resource.cert_work);
               ("out", iv_doc cert.Resource.cert_out);
               ("replans_hi", J.Int cert.Resource.cert_replans_hi) ]
             @ (match cert.Resource.cert_reopt with
                | None -> []
                | Some ro ->
                  [ ("predicted_replans", J.Int ro.Resource.ro_predicted_replans);
                    ("thrashing", J.Bool (ro.Resource.ro_thrashing <> None)) ])
             @ [ ("observed_peak", J.Int peak);
                 ("observed_work", J.Int work);
                 ("capped", J.Bool capped) ])
          :: !rows)
      queries;
    (* Same reporting discipline as lint, deduplicated per query. *)
    let n_errors, n_warnings = print_findings ~key:Fun.id collected in
    let wall_ms = Clock.ms_since t0 in
    Printf.printf
      "resources: %d queries certified and executed (%d capped, %d \
       simulated thrashers) in %.0fms; %d errors, %d warnings\n"
      (List.length queries) !n_capped !n_thrash wall_ms n_errors n_warnings;
    write_json json_path
      (J.Obj
         [ ("report", J.Str "resources");
           ("scale", J.Float scale);
           ("seed", J.Int seed);
           ("threshold", J.Float threshold);
           ("budget", match budget with Some b -> J.Float b | None -> J.Null);
           ("wall_ms", J.Float wall_ms);
           ("errors", J.Int n_errors);
           ("warnings", J.Int n_warnings);
           ("queries", J.List (List.rev !rows)) ]);
    exit_code n_errors
  in
  Cmd.v
    (Cmd.info "resources"
       ~doc:
         "Certify every workload query's default plan — sound \
          [lo, hi] bounds on peak resident memory (row-slots), total \
          executor work and output rows, a structural worst-case replan \
          count, and a simulated re-opt transition graph at the --reopt \
          threshold with thrashing and useless-materialization detection \
          — then execute it and hold the certificate against the observed \
          counters. --json writes every query's certified intervals and \
          observed peak/work (the BENCH_resources.json artifact). Exits 1 \
          on any unsound certificate, malformed interval, or (with \
          --budget) over-budget query; 0 otherwise.")
    Term.(const run $ scale_arg 0.1 $ seed_arg $ reopt_arg $ budget_arg
          $ json_arg)

(* ---- verify ---- *)

let cmd_verify =
  let module Card_bound = Rdb_verify.Card_bound in
  let module Equiv = Rdb_verify.Equiv in
  let gen_arg =
    Arg.(value & opt int 20 & info [ "gen" ] ~docv:"N"
           ~doc:"Also bound-check the plans of N generated queries (random \
                 FK-joins with sampled predicates), seeded by --seed.")
  in
  let run scale seed threshold perfect_n n_gen =
    let catalog, session = make_session ~scale ~seed () in
    let stats = Session.stats session in
    let queries = Rdb_imdb.Job_queries.all catalog in
    (* The header logs the seed: it drives both the data generator and the
       generated-query sweep, so a failure line below is reproducible by
       rerunning with the same --seed. *)
    Printf.printf
      "verify: seed=%d scale=%g reopt-threshold=%g perfect=%d gen=%d\n" seed
      scale threshold perfect_n n_gen;
    let n_plans = ref 0 and n_capped = ref 0 in
    let collected = ref [] in
    let report = add_findings collected in
    (* The generated data must actually satisfy the schema's declared
       keys/FKs — they are what make the bounds sound. Checked once. *)
    report "constraints" (Card_bound.check_constraints catalog);
    List.iter
      (fun (q : Rdb_query.Query.t) ->
        let name = q.Rdb_query.Query.name in
        let prepared = Session.prepare session q in
        let bounds = Card_bound.create ~catalog ~stats q in
        (* Bound-check the chosen plan of each estimator configuration;
           the bounds depend only on data + constraints, so one context
           serves all three. *)
        List.iter
          (fun (label, mode, pessimistic) ->
            (match mode with
             | Estimator.Perfect n ->
               Oracle.ensure_up_to (Session.oracle prepared) n
             | _ -> ());
            let plan, _, _ = Session.plan ~pessimistic prepared ~mode in
            incr n_plans;
            report
              (Printf.sprintf "%s [%s]" name label)
              (Card_bound.check_plan bounds plan))
          [ ("default", Estimator.Default, false);
            (Printf.sprintf "perfect-%d" perfect_n,
             Estimator.Perfect perfect_n, false);
            ("pessimistic", Estimator.Default, true) ];
        (* Re-optimization sweep: prove every rewrite step equivalent to
           its pre-step query, and bound-check the final plan against the
           final query (temp tables still in the catalog). *)
        (match
           reopt_sweep ~threshold session prepared q (fun outcome ->
               let q_prev = ref q in
               List.iter
                 (fun (s : Reopt.step) ->
                   let temp_cols =
                     Reopt.needed_cols !q_prev s.Reopt.materialized_set
                   in
                   report
                     (Printf.sprintf "%s [reopt step %s]" name s.Reopt.temp_name)
                     (Equiv.check_step ~catalog ~original:!q_prev
                        ~set:s.Reopt.materialized_set ~temp_cols
                        ~temp_name:s.Reopt.temp_name s.Reopt.query_after);
                   q_prev := s.Reopt.query_after)
                 outcome.Reopt.steps;
               if outcome.Reopt.steps <> [] then begin
                 let fbounds =
                   Card_bound.create ~catalog ~stats outcome.Reopt.final_query
                 in
                 incr n_plans;
                 report
                   (Printf.sprintf "%s [reopt final]" name)
                   (Card_bound.check_plan fbounds outcome.Reopt.final_plan)
               end)
         with
         | () -> ()
         | exception Executor.Work_budget_exceeded _ -> incr n_capped
         | exception Checks.Check_failed (_, findings) ->
           report (Printf.sprintf "%s [reopt]" name) findings))
      queries;
    (* Generated-query sweep: the workload exercises 113 fixed shapes; the
       seeded generator adds fresh FK-join shapes and predicate constants,
       all bound-checked against the same sound intervals. *)
    (if n_gen > 0 then begin
       let gen = Rdb_verify.Query_gen.create ~catalog in
       let prng = Rdb_util.Prng.create seed in
       for i = 1 to n_gen do
         let q =
           Rdb_verify.Query_gen.gen gen prng
             ~name:(Printf.sprintf "gen%d" i)
         in
         let prepared = Session.prepare session q in
         let bounds = Card_bound.create ~catalog ~stats q in
         let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
         incr n_plans;
         report
           (Printf.sprintf "%s [default]" q.Rdb_query.Query.name)
           (Card_bound.check_plan bounds plan)
       done
     end);
    (* Every finding in sweep order; the proofs are info-severity and only
       counted. *)
    let n_errors, n_warnings =
      print_findings collected ~shown:(fun f -> f.Finding.severity <> Finding.Info)
    in
    let n_proved =
      List.length
        (List.filter (fun (_, f) -> f.Finding.code = "rewrite-proved") !collected)
    in
    Printf.printf
      "verify: %d workload + %d generated queries, %d plans bound-checked, \
       %d rewrite steps proved equivalent (%d runaway cells capped); %d \
       errors, %d warnings\n"
      (List.length queries) n_gen !n_plans n_proved !n_capped n_errors
      n_warnings;
    exit_code n_errors
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Sweep the whole workload through the symbolic plan verifier: \
          validate the declared key/FK constraints against the data, check \
          every chosen plan's estimates against sound cardinality bounds \
          (default, perfect-(n) and pessimistic configurations), and prove \
          every re-optimization rewrite step equivalent to its pre-step \
          query. A seeded generated-query sweep (--gen, --seed) adds fresh \
          join shapes beyond the fixed workload; the report header logs the \
          seed. Exits non-zero on error-severity findings.")
    Term.(const run $ scale_arg 0.1 $ seed_arg $ reopt_arg $ perfect_arg
          $ gen_arg)

(* ---- fragility ---- *)

let cmd_fragility =
  let module Sensitivity = Rdb_analysis.Sensitivity in
  let module Card_bound = Rdb_verify.Card_bound in
  let thresholds = [ 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 ] in
  let envelope_arg =
    Arg.(value & opt float 64.0 & info [ "envelope" ] ~docv:"Q"
           ~doc:"Q-error envelope factor: each estimate's true value is \
                 assumed to lie in [est/Q, est*Q], further intersected with \
                 the symbolic verifier's sound bounds unless --no-bounds.")
  in
  let no_bounds_arg =
    Arg.(value & flag & info [ "no-bounds" ]
           ~doc:"Do not intersect the envelope with the verifier's sound \
                 cardinality bounds.")
  in
  let corner_limit_arg =
    Arg.(value & opt int 0 & info [ "corner-limit" ] ~docv:"N"
           ~doc:"Corner-replan at most the N joins with the widest \
                 envelopes per query (each costs two optimizer runs); 0 \
                 replans every join.")
  in
  let queries_arg =
    Arg.(value & opt (some string) None & info [ "queries" ] ~docv:"LIST"
           ~doc:"Comma-separated query names to sweep (default: all 113).")
  in
  let run scale seed env_factor no_bounds corner_limit queries_filter
      json_path =
    let catalog, session = make_session ~scale ~seed () in
    let queries = Rdb_imdb.Job_queries.all catalog in
    let queries =
      match queries_filter with
      | None -> queries
      | Some list ->
        let wanted = String.split_on_char ',' list in
        List.filter
          (fun (q : Rdb_query.Query.t) ->
            List.mem q.Rdb_query.Query.name wanted)
          queries
    in
    let corner_limit = if corner_limit <= 0 then max_int else corner_limit in
    Printf.printf
      "fragility: seed=%d scale=%g envelope=%g bounds=%b queries=%d \
       thresholds={%s}\n"
      seed scale env_factor (not no_bounds) (List.length queries)
      (String.concat ","
         (List.map (fun t -> Printf.sprintf "%g" t) thresholds));
    (* Per (threshold, metric) totals, accumulated query by query. *)
    let collected = ref [] in
    let tally = Hashtbl.create 16 in
    let bump t key =
      let k = (t, key) in
      Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k))
    in
    let query_docs =
      List.map
        (fun (q : Rdb_query.Query.t) ->
          let name = q.Rdb_query.Query.name in
          let prepared = Session.prepare session q in
          let plan, _, est = Session.plan prepared ~mode:Estimator.Default in
          let envelope =
            let q_env = Sensitivity.q_envelope env_factor in
            if no_bounds then q_env
            else begin
              let ctx =
                Card_bound.create ~catalog ~stats:(Session.stats session) q
              in
              Sensitivity.intersect q_env
                (Sensitivity.of_intervals (Card_bound.interval ctx))
            end
          in
          (* One interval interpretation + one set of corner replans per
             query: the envelope is fixed, only the trigger threshold is
             swept, so flips are classified per threshold afterwards. *)
          let report =
            Sensitivity.analyze ~envelope ~threshold:(List.hd thresholds)
              ~corner_replans:true ~corner_limit
              ~space:(Session.space prepared) ~catalog ~estimator:est q plan
          in
          (* uniform exit-code contract: error-severity findings (interval
             cost-model mismatches) make the sweep exit 1 like lint/verify;
             the per-join findings are what the flip lines below report *)
          add_findings collected name
            (Finding.errors (Sensitivity.findings q report));
          let flips =
            List.filter
              (fun (f : Sensitivity.fragility) -> f.Sensitivity.frag_flips <> None)
              report.Sensitivity.fragilities
          in
          List.iter
            (fun (f : Sensitivity.fragility) ->
              match f.Sensitivity.frag_flips with
              | Some (corner, shape) ->
                Printf.printf
                  "%s: flip {%s} est %.0f -> %.0f changes plan to %s (worst \
                   q-error %.1f)\n"
                  name
                  (String.concat "," f.Sensitivity.frag_aliases)
                  f.Sensitivity.frag_est corner shape
                  f.Sensitivity.frag_q_error
              | None -> ())
            flips;
          let by_threshold =
            List.map
              (fun t ->
                let predicted =
                  Sensitivity.predict_trigger ~envelope ~threshold:t q plan
                in
                let fragile, blind =
                  List.partition
                    (fun (f : Sensitivity.fragility) ->
                      f.Sensitivity.frag_q_error >= t)
                    flips
                in
                let robust = predicted = None && flips = [] in
                (match predicted with
                 | Some p ->
                   bump t "predicted";
                   if p.Sensitivity.pred_certain then bump t "certain"
                 | None -> ());
                if fragile <> [] then bump t "fragile";
                if blind <> [] then bump t "blind";
                if robust then bump t "robust";
                J.Obj
                  [ ("threshold", J.Float t);
                    ( "predicted_trigger",
                      match predicted with
                      | None -> J.Null
                      | Some p ->
                        J.Str
                          (String.concat "," p.Sensitivity.pred_aliases) );
                    ( "trigger_certain",
                      J.Bool
                        (match predicted with
                         | Some p -> p.Sensitivity.pred_certain
                         | None -> false) );
                    ("fragile_joins", J.Int (List.length fragile));
                    ("reopt_blind_spots", J.Int (List.length blind));
                    ("robust", J.Bool robust) ])
              thresholds
          in
          J.Obj
            [ ("query", J.Str name);
              ("joins", J.Int (Rdb_plan.Plan.n_joins plan));
              ("shape", J.Str report.Sensitivity.plan_shape);
              ( "root_cost",
                J.Obj
                  [ ("lo", J.Float report.Sensitivity.root_cost.Rdb_cost.Interval.lo);
                    ("hi", J.Float report.Sensitivity.root_cost.Rdb_cost.Interval.hi) ] );
              ("plan_flips", J.Int (List.length flips));
              ("by_threshold", J.List by_threshold) ])
        queries
    in
    let count t key = Option.value ~default:0 (Hashtbl.find_opt tally (t, key)) in
    List.iter
      (fun t ->
        Printf.printf
          "threshold %3g: trigger predicted %d (certain %d) | fragile %d | \
           re-opt blind spots %d | robust %d of %d\n"
          t (count t "predicted") (count t "certain") (count t "fragile")
          (count t "blind") (count t "robust") (List.length queries))
      thresholds;
    let n_errors, _ = print_findings collected in
    write_json json_path
      (J.Obj
         [ ("report", J.Str "fragility");
           ("scale", J.Float scale);
           ("seed", J.Int seed);
           ("envelope", J.Float env_factor);
           ("bounds", J.Bool (not no_bounds));
           ("thresholds", J.List (List.map (fun t -> J.Float t) thresholds));
           ("queries", J.List query_docs) ]);
    if n_errors > 0 then
      Printf.printf "fragility: %d error findings\n" n_errors;
    exit_code n_errors
  in
  Cmd.v
    (Cmd.info "fragility"
       ~doc:
         "Static plan-robustness sweep: propagate cardinality intervals \
          through the cost model for every workload query, predict which \
          join would trip the re-optimizer at each threshold in \
          {2,4,8,16,32,64}, and corner-replan each join's envelope to find \
          the estimates the DP-optimal plan actually depends on. Never \
          executes a query.")
    Term.(const run $ scale_arg 0.1 $ seed_arg $ envelope_arg
          $ no_bounds_arg $ corner_limit_arg $ queries_arg $ json_arg)

(* ---- feedback ---- *)

let cmd_feedback =
  let module Runner = Rdb_harness.Runner in
  let module FS = Rdb_harness.Feedback_sweep in
  let reopt_learn_arg =
    Arg.(value & opt float 32.0 & info [ "reopt-learn" ] ~docv:"THRESHOLD"
           ~doc:"Q-error trigger of the re-optimizing learning pass whose \
                 materializations pay for true cardinalities.")
  in
  let measurement_doc (m : Runner.measurement) =
    J.Obj
      [ ("work", J.Int m.Runner.m_work);
        ("capped", J.Bool m.Runner.m_capped);
        ("steps", J.Int m.Runner.m_steps);
        ("plan_ms", J.Float m.Runner.m_plan_ms);
        ("exec_ms", J.Float m.Runner.m_exec_ms) ]
  in
  let delta_doc (q, ratio) =
    J.Obj [ ("query", J.Str q); ("work_ratio", J.Float ratio) ]
  in
  let run scale seed jobs perfect_n reopt_learn json_path =
    Printf.printf
      "feedback: seed=%d scale=%g jobs=%d perfect=%d reopt-learn=%g\n%!"
      seed scale jobs perfect_n reopt_learn;
    let lab = Runner.create_lab ~seed ~scale () in
    let r = FS.run ~jobs ~perfect_n ~reopt_learn lab in
    Printf.printf
      "learned %d corrections (default pass + re-opt pass at threshold %g), \
       store frozen\n"
      r.FS.fr_store_size r.FS.fr_reopt_learn;
    let total get =
      List.fold_left (fun acc row -> acc + (get row).Runner.m_work) 0
        r.FS.fr_rows
    and capped get =
      List.fold_left
        (fun acc row -> if (get row).Runner.m_capped then acc + 1 else acc)
        0 r.FS.fr_rows
    in
    let d_work = total (fun row -> row.FS.fs_default)
    and n_work = total (fun row -> row.FS.fs_naive)
    and g_work = total (fun row -> row.FS.fs_gated)
    and p_work = total (fun row -> row.FS.fs_perfect) in
    let d_capped = capped (fun row -> row.FS.fs_default)
    and n_capped = capped (fun row -> row.FS.fs_naive)
    and g_capped = capped (fun row -> row.FS.fs_gated)
    and p_capped = capped (fun row -> row.FS.fs_perfect) in
    Printf.printf "workload work (%d queries, capped cells in parens):\n"
      (List.length r.FS.fr_rows);
    Printf.printf "  default          %12d (%d)\n" d_work d_capped;
    Printf.printf "  feedback-naive   %12d (%d)\n" n_work n_capped;
    Printf.printf "  feedback-gated   %12d (%d)\n" g_work g_capped;
    Printf.printf "  perfect-(%d)      %12d (%d)\n" perfect_n p_work p_capped;
    let show label deltas =
      Printf.printf "%s: %d\n" label (List.length deltas);
      List.iter
        (fun (q, ratio) -> Printf.printf "  %-4s %.2fx default's work\n" q ratio)
        deltas
    in
    show "naive regressions (corrections made the plan worse)"
      r.FS.fr_naive_regressions;
    show "naive improvements" r.FS.fr_naive_improvements;
    show "gated regressions (must be empty)" r.FS.fr_gated_regressions;
    show "gated improvements" r.FS.fr_gated_improvements;
    Printf.printf
      "planning: dp pairs default=%d naive=%d gated=%d | store probes %d \
       (bound %d)\n"
      r.FS.fr_default_pairs r.FS.fr_naive_pairs r.FS.fr_gated_pairs
      r.FS.fr_naive_lookups r.FS.fr_lookup_bound;
    (* The exit-code contract: planning-work invariants (enumeration is
       estimate-independent; lookups are demand-driven) plus the paper's
       §IV-E/§V shape — naive corrections hurt at least one query, gated
       corrections never materially hurt any. *)
    let pairs_ok =
      r.FS.fr_naive_pairs = r.FS.fr_default_pairs
      && r.FS.fr_gated_pairs = r.FS.fr_default_pairs
    in
    let lookups_ok = r.FS.fr_naive_lookups <= r.FS.fr_lookup_bound in
    let gated_ok = r.FS.fr_gated_regressions = [] in
    let naive_hurts = r.FS.fr_naive_regressions <> [] in
    let check name ok detail =
      Printf.printf "check %-32s %s (%s)\n" name (if ok then "ok" else "FAIL")
        detail
    in
    check "dp-pairs-identical" pairs_ok
      (Printf.sprintf "%d/%d/%d" r.FS.fr_default_pairs r.FS.fr_naive_pairs
         r.FS.fr_gated_pairs);
    check "lookups-within-demand-bound" lookups_ok
      (Printf.sprintf "%d <= %d" r.FS.fr_naive_lookups r.FS.fr_lookup_bound);
    check "gated-never-materially-worse" gated_ok
      (Printf.sprintf "%d regressions" (List.length r.FS.fr_gated_regressions));
    check "naive-corrections-hurt-somewhere" naive_hurts
      (Printf.sprintf "%d regressions" (List.length r.FS.fr_naive_regressions));
    write_json json_path
      (J.Obj
         [ ("report", J.Str "feedback");
           ("scale", J.Float scale);
           ("seed", J.Int seed);
           ("perfect_n", J.Int r.FS.fr_perfect_n);
           ("reopt_learn", J.Float r.FS.fr_reopt_learn);
           ("store_size", J.Int r.FS.fr_store_size);
           ( "planning",
             J.Obj
               [ ("default_pairs", J.Int r.FS.fr_default_pairs);
                 ("naive_pairs", J.Int r.FS.fr_naive_pairs);
                 ("gated_pairs", J.Int r.FS.fr_gated_pairs);
                 ("naive_lookups", J.Int r.FS.fr_naive_lookups);
                 ("lookup_bound", J.Int r.FS.fr_lookup_bound) ] );
           ( "totals",
             J.Obj
               [ ("default_work", J.Int d_work);
                 ("naive_work", J.Int n_work);
                 ("gated_work", J.Int g_work);
                 ("perfect_work", J.Int p_work);
                 ("default_capped", J.Int d_capped);
                 ("naive_capped", J.Int n_capped);
                 ("gated_capped", J.Int g_capped);
                 ("perfect_capped", J.Int p_capped) ] );
           ( "naive_regressions",
             J.List (List.map delta_doc r.FS.fr_naive_regressions) );
           ( "naive_improvements",
             J.List (List.map delta_doc r.FS.fr_naive_improvements) );
           ( "gated_regressions",
             J.List (List.map delta_doc r.FS.fr_gated_regressions) );
           ( "gated_improvements",
             J.List (List.map delta_doc r.FS.fr_gated_improvements) );
           ( "checks",
             J.Obj
               [ ("dp_pairs_identical", J.Bool pairs_ok);
                 ("lookups_within_demand_bound", J.Bool lookups_ok);
                 ("gated_never_materially_worse", J.Bool gated_ok);
                 ("naive_corrections_hurt_somewhere", J.Bool naive_hurts) ] );
           ( "queries",
             J.List
               (List.map
                  (fun (row : FS.row) ->
                    J.Obj
                      [ ("query", J.Str row.FS.fs_query);
                        ("rels", J.Int row.FS.fs_rels);
                        ("default", measurement_doc row.FS.fs_default);
                        ("naive", measurement_doc row.FS.fs_naive);
                        ("gated", measurement_doc row.FS.fs_gated);
                        ("perfect", measurement_doc row.FS.fs_perfect) ])
                  r.FS.fr_rows) ) ]);
    if pairs_ok && lookups_ok && gated_ok && naive_hurts then 0 else 1
  in
  Cmd.v
    (Cmd.info "feedback"
       ~doc:
         "LEO-style cardinality-feedback sweep over the 113-query workload: \
          two learning passes (default execution, then re-optimization \
          whose materializations pay for true sub-join cardinalities) fill \
          the feedback store; the frozen store is then measured under \
          default, naive feedback, fragility-gated feedback, and \
          perfect-(N). --json writes the BENCH_feedback.json artifact. \
          Exits 1 when gated corrections are materially worse than default \
          anywhere, when feedback modes change the DPccp pair count, when \
          store probes exceed the demand-driven bound, or when no query \
          shows the paper's corrections-can-hurt effect.")
    Term.(const run $ scale_arg 0.1 $ seed_arg $ jobs_arg 1 $ perfect_arg
          $ reopt_learn_arg $ json_arg)

(* ---- serve ---- *)

let cmd_serve =
  let cache_arg =
    Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N"
           ~doc:"Plan cache capacity (LRU entries).")
  in
  let revalidate_arg =
    Arg.(value & flag & info [ "revalidate" ]
           ~doc:"On stale cache entries, try proving the cached plan still \
                 inside the verifier's sound cardinality bounds before \
                 invalidating it.")
  in
  let mem_budget_arg =
    Arg.(value & opt (some float) None & info [ "mem-budget" ] ~docv:"SLOTS"
           ~doc:"Admission control: reject any plan whose statically \
                 certified peak memory (row-slots) exceeds this budget. The \
                 certificate is a sound upper bound, so admitted queries \
                 provably stay within it.")
  in
  let downgrade_arg =
    Arg.(value & flag & info [ "downgrade" ]
           ~doc:"With --mem-budget: run over-budget queries through the \
                 re-optimization loop instead of rejecting them.")
  in
  let port_arg =
    Arg.(value & opt int 7878 & info [ "port" ] ~docv:"PORT"
           ~doc:"TCP port of the line-oriented SQL frontend.")
  in
  let host_arg =
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
           ~doc:"Address to bind.")
  in
  let run scale seed jobs cache reopt revalidate mem_budget downgrade host
      port =
    (* The serving session carries a feedback store: executions behind cache
       hits and re-opt write-backs observe true cardinalities as a side
       effect of serving, so replans after invalidation start corrected. *)
    let _catalog, session =
      make_session ~feedback:(Rdb_core.Feedback.create ()) ~scale ~seed ()
    in
    let config =
      {
        Rdb_server.Service.default_config with
        jobs;
        cache_capacity = cache;
        reopt;
        revalidate;
        mem_budget;
        downgrade;
      }
    in
    let service = Rdb_server.Service.create ~config session in
    Printf.printf "reoptdb: listening on %s:%d (scale=%g jobs=%d cache=%d)\n%!"
      host port scale jobs cache;
    Rdb_server.Frontend.serve ~host ~port service;
    Rdb_server.Service.shutdown service;
    Printf.printf "reoptdb: server stopped\n%!";
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-running query service: SQL over a line-oriented \
          socket, a worker-domain pool with per-domain session snapshots, \
          and an LRU plan cache keyed on the CQNF canonical form (hits \
          skip DPccp entirely). With --reopt, misses run mid-query \
          re-optimization and improved plans are written back to the \
          cache. With --mem-budget, every plan's static resource \
          certificate gates admission. Commands: \\\\cache, \\\\metrics, \
          \\\\resources, \\\\refresh, \\\\quit, \\\\shutdown.")
    Term.(const run $ scale_arg 0.3 $ seed_arg $ jobs_arg 0 $ cache_arg
          $ reopt_opt $ revalidate_arg $ mem_budget_arg $ downgrade_arg
          $ host_arg $ port_arg)

(* ---- racecheck, exnflow ---- *)

(* The two source analyzers share one command shape: roots, registry
   opt-out, report, JSON, exit code; only the analyzer differs. *)
let srclint_cmd name analyzer ~no_registry_doc ~doc =
  let roots_arg =
    Arg.(value & opt_all string [] & info [ "root" ] ~docv:"DIR"
           ~doc:"Directory tree of .ml sources to analyze (repeatable). \
                 Default: the repository's lib/ directory, located by \
                 walking up from the current directory.")
  in
  let no_registry_arg =
    Arg.(value & flag & info [ "no-registry" ] ~doc:no_registry_doc)
  in
  let run roots json_path no_registry =
    let roots =
      if roots = [] then Option.to_list (Srclint.find_default_root ())
      else roots
    in
    match List.concat_map Srclint.ml_files_under roots with
    | _ when roots = [] ->
      Printf.eprintf "%s: cannot locate the repository's lib/ (pass --root)\n"
        name;
      2
    | [] ->
      Printf.eprintf "%s: no .ml files under %s\n" name
        (String.concat ", " roots);
      2
    | files ->
      let registry =
        if no_registry then Rdb_srclint.Registry.none
        else Rdb_srclint.Registry.default
      in
      let report = Srclint.analyze ~registry analyzer files in
      print_string (Srclint.render report);
      write_json json_path (Srclint.to_json report);
      Srclint.exit_code report
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ roots_arg $ json_arg $ no_registry_arg)

let cmd_racecheck =
  srclint_cmd "racecheck" Srclint.Racecheck
    ~no_registry_doc:
      "Skip the checked registry of the serving stack's known shared state \
       (for analyzing trees other than this repository's lib/)."
    ~doc:
      "Source-level concurrency-safety lint of the repository's own .ml \
       tree: checks every @guarded_by/@confined-annotated shared state for \
       accesses outside its lock, closures passed to other domains that \
       capture guarded state, blocking calls under a lock, \
       lock-acquisition-order cycles across modules, and the checked \
       registry of the serving stack's shared state. The static complement \
       of the TSan CI job. --json writes locks, lock-order edges and \
       findings. Exits 1 on error findings, 2 on usage errors."

let cmd_exnflow =
  srclint_cmd "exnflow" Srclint.Exnflow
    ~no_registry_doc:
      "Skip the designated-handler registry and the pinned serving-stack \
       file list (for analyzing trees other than this repository's lib/)."
    ~doc:
      "Source-level exception-flow lint of the repository's own .ml tree: \
       proves resources acquired in a scope (fds, channels, held mutexes, \
       pools, temp tables) are released on every raising path, that no \
       exception can escape a Domain.spawn/Thread.create/Pool.submit \
       closure, and that control exceptions (Work_budget_exceeded & co) \
       are only caught at registry-pinned handler sites. The error-path \
       complement of racecheck. --json writes the summary counts and \
       findings. Exits 1 on error findings, 2 on usage errors."

(* ---- json-check ---- *)

let cmd_json_check =
  let path_pos =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH"
           ~doc:"JSON report to validate.")
  in
  let run path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Printf.eprintf "json-check: %s\n" e; 2
    | text ->
      (match Rdb_obs.Json.parse_opt text with
       | Some (Rdb_obs.Json.Obj fields) ->
         Printf.printf "json-check: %s: valid object, %d top-level keys, %d \
                        bytes\n"
           path (List.length fields) (String.length text);
         0
       | Some _ ->
         Printf.eprintf
           "json-check: %s: valid JSON but not an object (reports are \
            objects)\n"
           path;
         1
       | None ->
         Printf.eprintf "json-check: %s: not valid JSON\n" path;
         1)
  in
  Cmd.v
    (Cmd.info "json-check"
       ~doc:
         "Validate a JSON report (metrics dump, fragility report) with the \
          engine's strict dependency-free parser. Exits non-zero unless the \
          file is one syntactically valid JSON object.")
    Term.(const run $ path_pos)

let () =
  (match Checks.env () with
   | _ -> ()
   | exception Invalid_argument msg ->
     Printf.eprintf "reoptdb: %s\n" msg;
     exit 2);
  let info =
    Cmd.info "reoptdb"
      ~doc:
        "A from-scratch reproduction of 'How I Learned to Stop Worrying and \
         Love Re-optimization' (ICDE 2019): query engine, instrumented \
         optimizer, and mid-query re-optimization."
  in
  let code =
    Cmd.eval'
      (Cmd.group info
         [ cmd_queries; cmd_sql; cmd_explain; cmd_run; cmd_experiment;
           cmd_lint; cmd_resources; cmd_verify; cmd_fragility; cmd_feedback;
           cmd_serve; cmd_racecheck; cmd_exnflow; cmd_json_check ])
  in
  (* cmdliner reports its own parse errors as 124; fold them into the
     uniform contract (2 = usage error) shared by every subcommand. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
