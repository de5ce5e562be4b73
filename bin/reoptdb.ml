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

   This file holds flags and rendering only: Rdb_harness.Runner builds the
   database and resolves --mode, Rdb_harness.Sweep and Feedback_sweep run
   the analysis sweeps, and Rdb_analysis.Finding collects their findings.

   The common flags are defined once and mean the same on every command
   that takes them: --scale, --seed, --json PATH, --reopt, --perfect,
   --jobs. The serving benchmark is the ledger's serve-hot workload (see
   ledger/README.md).

   Exit codes are uniform across the analysis commands (lint, verify,
   resources, fragility, feedback, racecheck, exnflow, json-check): 0
   clean, 1 error-severity findings, 2 usage error (a bad or out-of-range
   flag value, an unknown query or experiment name).

   Set RDB_TRACE=stderr (or =path for JSON-lines) to trace every pipeline
   phase as nested timed spans.
   Set RDB_CHECKS=lint,verify,sensitivity,resource (any subset) to run
   those invariant checks on every plan and re-optimization step; a
   malformed value is a usage error. *)

open Cmdliner

module Session = Rdb_core.Session
module Executor = Rdb_exec.Executor
module Reopt = Rdb_core.Reopt
module Trigger = Rdb_core.Trigger
module Finding = Rdb_analysis.Finding
module Runner = Rdb_harness.Runner
module Sweep = Rdb_harness.Sweep
module Srclint = Rdb_srclint.Srclint
module J = Rdb_obs.Json
module Clock = Rdb_obs.Clock

(* ---- common flags ---- *)

(* A converter that also rejects out-of-range values, so a malformed flag
   is a usage error (exit 2) before any database is built. *)
let checked base ok ~expected =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when not (ok v) ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | result -> result
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive_float =
  checked Arg.float
    (fun x -> Float.is_finite x && x > 0.0)
    ~expected:"a positive number"

let positive_int =
  checked Arg.int (fun n -> n >= 1) ~expected:"a positive integer"

let non_negative_int =
  checked Arg.int (fun n -> n >= 0) ~expected:"a non-negative integer"

let scale_arg default =
  Arg.(value & opt positive_float default & info [ "scale" ] ~docv:"FACTOR"
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
  let threshold =
    checked Arg.float
      (fun x -> Float.is_finite x && x >= 1.0)
      ~expected:"a finite number >= 1"
  in
  Arg.(value & opt (some threshold) None & info [ "reopt" ] ~docv:"THRESHOLD"
         ~doc:"Q-error threshold of the re-optimization trigger. On run and \
               serve it enables re-optimization; elsewhere it defaults to \
               32.")

let reopt_arg = Term.(const (Option.value ~default:32.0) $ reopt_opt)

let perfect_arg =
  Arg.(value & opt positive_int 4 & info [ "perfect" ] ~docv:"N"
         ~doc:"Size of the perfect-(N) estimator configuration.")

let jobs_arg default =
  let resolve jobs = if jobs = 0 then Rdb_util.Pool.default_jobs () else jobs in
  Term.(
    const resolve
    $ Arg.(value & opt non_negative_int default & info [ "jobs"; "j" ] ~docv:"N"
             ~doc:"Worker domains (0 = one per core). Deterministic \
                   measurements are identical at any count."))

let write_json path doc =
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (J.to_string doc);
          output_char oc '\n');
      Printf.eprintf "report written to %s\n%!" path)
    path

(* An unknown query name is a usage error (exit 2), caught before the
   database is generated. *)
let query_name =
  let parse name =
    match Rdb_imdb.Job_queries.sql_of name with
    | Some _ -> Ok name
    | None -> Error (`Msg ("unknown query " ^ name))
  in
  Arg.conv (parse, Format.pp_print_string)

(* ---- estimation modes and the feedback store ---- *)

let mode_arg =
  let parse s =
    match Runner.config_of_name s with
    | Some config -> Ok config
    | None -> Error (`Msg ("bad mode " ^ s))
  in
  let print ppf config = Format.pp_print_string ppf (Runner.config_name config) in
  let doc =
    "Estimation mode: 'default', 'perfect' or 'perfect-N' (true \
     cardinalities for joins of at most N relations), 'feedback' (serve \
     every remembered true cardinality from the feedback store) or \
     'feedback-gated' (suppress corrections the fragility analysis marks \
     as plan-flipping)."
  in
  Arg.(value & opt (conv (parse, print)) Runner.Default
       & info [ "mode" ] ~docv:"MODE" ~doc)

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

let feedback_store_of path =
  match Option.bind path Rdb_core.Feedback.load with
  | Some fb -> fb
  | None -> Rdb_core.Feedback.create ()

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

let query_pos =
  Arg.(required & pos 0 (some query_name) None
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

(* explain and run share their set-up: load the --feedback store, build
   the database around it, prepare the query and resolve --mode. Once [k]
   has printed its result, the store is saved back. *)
let with_query_arg =
  let with_query name scale seed config feedback_path k =
    let feedback = feedback_store_of feedback_path in
    let lab = Runner.create_lab ~feedback ~seed ~scale () in
    let q = Runner.query lab name in
    k (Runner.session lab) q (Runner.prepared_of lab q)
      (Runner.mode_of_config lab q config);
    feedback_store_save feedback feedback_path;
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
    with_query (fun _ q prepared mode ->
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
            else fun set ->
              let lo, hi =
                Rdb_verify.Card_bound.interval (Session.bounds prepared) set
              in
              [ Printf.sprintf "bounds=[%.0f, %.0f]" lo hi ]
          in
          print_string
            (Rdb_plan.Explain.render
               ~actuals:(fun set -> Some (Rdb_card.Oracle.true_card oracle set))
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
    with_query (fun session q prepared mode ->
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
    let lab = Runner.create_lab ~seed ~scale () in
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

(* ---- lint, resources, verify, fragility ---- *)

let cmd_lint =
  let source_arg =
    Arg.(value & flag & info [ "source" ]
           ~doc:"Also run the source-level concurrency analyzer (racecheck) \
                 over the repository's lib/ tree and merge its findings, \
                 with the same dedupe and stable sort.")
  in
  (* The source analyzers over the repository's own lib/ tree, each
     finding under its space-free "file:line" site so the dedupe is
     per-site and folds a hygiene finding both analyzers report. *)
  let source_findings () =
    match Srclint.find_default_root () with
    | None ->
      let msg = "cannot locate the repository's lib/ tree for --source" in
      (0, [ ("source", Finding.warning ~code:"src-no-root" msg) ])
    | Some root ->
      let races = Srclint.analyze_tree Srclint.Racecheck ~root () in
      let flows = Srclint.analyze_tree Srclint.Exnflow ~root () in
      ( List.length races.Srclint.files,
        Srclint.findings races @ Srclint.findings flows )
  in
  let run scale seed threshold perfect_n source =
    let lab = Runner.create_lab ~seed ~scale () in
    let c, findings = Sweep.lint ~threshold ~perfect_n lab in
    let n_files, src = if source then source_findings () else (0, []) in
    let s = Finding.summarize ~key:Sweep.query_of (findings @ src) in
    print_string s.Finding.lines;
    Printf.printf
      "lint: %d queries, %d plans, %d rewrite steps%s checked (%d runaway \
       cells capped); %d errors, %d warnings\n"
      (List.length (Runner.queries lab)) c.Sweep.n_plans c.Sweep.n_steps
      (if source then Printf.sprintf ", %d source files" n_files else "")
      c.Sweep.n_capped s.Finding.errors s.Finding.warnings;
    Finding.exit_code s
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

let cmd_resources =
  let module Resource = Rdb_analysis.Resource in
  let budget_arg =
    Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"SLOTS"
           ~doc:"Report an error finding for every query whose certified \
                 peak memory exceeds SLOTS row-slots — the admission \
                 decision `reoptdb serve --mem-budget` would make, as an \
                 offline sweep.")
  in
  let row_doc (row : Sweep.resource_row) =
    let cert = row.Sweep.rr_cert in
    J.Obj
      ((("query", J.Str row.Sweep.rr_query) :: Resource.envelope_fields cert)
       @ (match cert.Resource.cert_reopt with
          | None -> []
          | Some ro ->
            [ ("predicted_replans", J.Int ro.Resource.ro_predicted_replans);
              ("thrashing", J.Bool (ro.Resource.ro_thrashing <> None)) ])
       @ [ ("observed_peak", J.Int row.Sweep.rr_peak);
           ("observed_work", J.Int row.Sweep.rr_work);
           ("capped", J.Bool row.Sweep.rr_capped) ])
  in
  let thrashing (row : Sweep.resource_row) =
    Option.fold row.Sweep.rr_cert.Resource.cert_reopt ~none:false
      ~some:(fun ro -> ro.Resource.ro_thrashing <> None)
  in
  let run scale seed threshold budget json_path =
    let lab = Runner.create_lab ~seed ~scale () in
    let t0 = Clock.now_ms () in
    let rows, findings = Sweep.resources ?budget ~threshold lab in
    (* Same reporting discipline as lint, deduplicated per context. *)
    let s = Finding.summarize ~key:Fun.id findings in
    print_string s.Finding.lines;
    let wall_ms = Clock.ms_since t0 in
    let count p = List.length (List.filter p rows) in
    Printf.printf
      "resources: %d queries certified and executed (%d capped, %d \
       simulated thrashers) in %.0fms; %d errors, %d warnings\n"
      (List.length rows)
      (count (fun row -> row.Sweep.rr_capped))
      (count thrashing) wall_ms s.Finding.errors s.Finding.warnings;
    write_json json_path
      (J.Obj
         [ ("report", J.Str "resources");
           ("scale", J.Float scale);
           ("seed", J.Int seed);
           ("threshold", J.Float threshold);
           ("budget", match budget with Some b -> J.Float b | None -> J.Null);
           ("wall_ms", J.Float wall_ms);
           ("errors", J.Int s.Finding.errors);
           ("warnings", J.Int s.Finding.warnings);
           ("queries", J.List (List.map row_doc rows)) ]);
    Finding.exit_code s
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

let cmd_verify =
  let gen_arg =
    Arg.(value & opt non_negative_int 20 & info [ "gen" ] ~docv:"N"
           ~doc:"Also bound-check the plans of N generated queries (random \
                 FK-joins with sampled predicates), seeded by --seed.")
  in
  let run scale seed threshold perfect_n gen =
    let lab = Runner.create_lab ~seed ~scale () in
    (* The header logs the seed: it drives both the data generator and the
       generated-query sweep, so a failure line below is reproducible by
       rerunning with the same --seed. *)
    Printf.printf
      "verify: seed=%d scale=%g reopt-threshold=%g perfect=%d gen=%d\n" seed
      scale threshold perfect_n gen;
    let c, findings = Sweep.verify ~threshold ~perfect_n ~gen ~seed lab in
    (* Every finding in sweep order; the proofs are info-severity and only
       counted. *)
    let shown f = f.Finding.severity <> Finding.Info in
    let s = Finding.summarize ~shown findings in
    print_string s.Finding.lines;
    Printf.printf
      "verify: %d workload + %d generated queries, %d plans bound-checked, \
       %d rewrite steps proved equivalent (%d runaway cells capped); %d \
       errors, %d warnings\n"
      (List.length (Runner.queries lab)) gen c.Sweep.n_plans c.Sweep.n_steps
      c.Sweep.n_capped s.Finding.errors s.Finding.warnings;
    Finding.exit_code s
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

let cmd_fragility =
  let module Sensitivity = Rdb_analysis.Sensitivity in
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
    Arg.(value & opt non_negative_int 0 & info [ "corner-limit" ] ~docv:"N"
           ~doc:"Corner-replan at most the N joins with the widest \
                 envelopes per query (each costs two optimizer runs); 0 \
                 replans every join.")
  in
  let queries_arg =
    Arg.(value & opt (some (list query_name)) None & info [ "queries" ]
           ~docv:"LIST"
           ~doc:"Comma-separated query names to sweep (default: all 113).")
  in
  let certain (a : Sweep.at_threshold) =
    Option.fold a.Sweep.at_predicted ~none:false
      ~some:(fun p -> p.Sensitivity.pred_certain)
  in
  let at_doc t (a : Sweep.at_threshold) =
    J.Obj
      [ ("threshold", J.Float t);
        ( "predicted_trigger",
          match a.Sweep.at_predicted with
          | None -> J.Null
          | Some p -> J.Str (String.concat "," p.Sensitivity.pred_aliases) );
        ("trigger_certain", J.Bool (certain a));
        ("fragile_joins", J.Int a.Sweep.at_fragile);
        ("reopt_blind_spots", J.Int a.Sweep.at_blind);
        ("robust", J.Bool a.Sweep.at_robust) ]
  in
  let query_doc (fq : Sweep.fragile_query) =
    J.Obj
      [ ("query", J.Str fq.Sweep.fq_query);
        ("joins", J.Int fq.Sweep.fq_joins);
        ("shape", J.Str fq.Sweep.fq_report.Sensitivity.plan_shape);
        ( "root_cost",
          Rdb_analysis.Resource.json_interval
            fq.Sweep.fq_report.Sensitivity.root_cost );
        ("plan_flips", J.Int (List.length fq.Sweep.fq_flips));
        ( "by_threshold",
          J.List
            (List.map2 at_doc Sweep.fragility_thresholds fq.Sweep.fq_by_threshold)
        ) ]
  in
  let run scale seed envelope no_bounds corner_limit names json_path =
    let lab = Runner.create_lab ~seed ~scale () in
    let selected (q : Rdb_query.Query.t) =
      Option.fold names ~none:true ~some:(List.mem q.Rdb_query.Query.name)
    in
    let fqs, findings =
      Sweep.fragility ~queries:(List.filter selected (Runner.queries lab))
        ~envelope ~bounds:(not no_bounds) ~corner_limit lab
    in
    let thresholds = Sweep.fragility_thresholds in
    Printf.printf
      "fragility: seed=%d scale=%g envelope=%g bounds=%b queries=%d \
       thresholds={%s}\n"
      seed scale envelope (not no_bounds) (List.length fqs)
      (String.concat "," (List.map (Printf.sprintf "%g") thresholds));
    List.iter
      (fun (fq : Sweep.fragile_query) ->
        List.iter
          (fun (f : Sensitivity.fragility) ->
            Option.iter
              (fun (corner, shape) ->
                Printf.printf
                  "%s: flip {%s} est %.0f -> %.0f changes plan to %s (worst \
                   q-error %.1f)\n"
                  fq.Sweep.fq_query
                  (String.concat "," f.Sensitivity.frag_aliases)
                  f.Sensitivity.frag_est corner shape f.Sensitivity.frag_q_error)
              f.Sensitivity.frag_flips)
          fq.Sweep.fq_flips)
      fqs;
    List.iteri
      (fun i t ->
        let ats = List.map (fun fq -> List.nth fq.Sweep.fq_by_threshold i) fqs in
        let count p = List.length (List.filter p ats) in
        Printf.printf
          "threshold %3g: trigger predicted %d (certain %d) | fragile %d | \
           re-opt blind spots %d | robust %d of %d\n"
          t
          (count (fun a -> a.Sweep.at_predicted <> None))
          (count certain)
          (count (fun a -> a.Sweep.at_fragile > 0))
          (count (fun a -> a.Sweep.at_blind > 0))
          (count (fun a -> a.Sweep.at_robust))
          (List.length fqs))
      thresholds;
    let s = Finding.summarize findings in
    print_string s.Finding.lines;
    write_json json_path
      (J.Obj
         [ ("report", J.Str "fragility");
           ("scale", J.Float scale);
           ("seed", J.Int seed);
           ("envelope", J.Float envelope);
           ("bounds", J.Bool (not no_bounds));
           ("thresholds", J.List (List.map (fun t -> J.Float t) thresholds));
           ("queries", J.List (List.map query_doc fqs)) ]);
    if s.Finding.errors > 0 then
      Printf.printf "fragility: %d error findings\n" s.Finding.errors;
    Finding.exit_code s
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
  let row_doc (row : FS.row) =
    J.Obj
      [ ("query", J.Str row.FS.fs_query);
        ("rels", J.Int row.FS.fs_rels);
        ("default", measurement_doc row.FS.fs_default);
        ("naive", measurement_doc row.FS.fs_naive);
        ("gated", measurement_doc row.FS.fs_gated);
        ("perfect", measurement_doc row.FS.fs_perfect) ]
  in
  let run scale seed jobs perfect_n reopt_learn json_path =
    Printf.printf
      "feedback: seed=%d scale=%g jobs=%d perfect=%d reopt-learn=%g\n%!"
      seed scale jobs perfect_n reopt_learn;
    let lab = Runner.create_lab ~seed ~scale () in
    let r = FS.run ~jobs ~perfect_n ~reopt_learn lab in
    let v = FS.verdict r in
    Printf.printf
      "learned %d corrections (default pass + re-opt pass at threshold %g), \
       store frozen\n"
      r.FS.fr_store_size r.FS.fr_reopt_learn;
    let modes =
      [ ("default", "default", v.FS.v_default);
        ("naive", "feedback-naive", v.FS.v_naive);
        ("gated", "feedback-gated", v.FS.v_gated);
        ("perfect", Printf.sprintf "perfect-(%d)" perfect_n, v.FS.v_perfect) ]
    in
    Printf.printf "workload work (%d queries, capped cells in parens):\n"
      (List.length r.FS.fr_rows);
    List.iter
      (fun (_, label, t) ->
        Printf.printf "  %-17s%12d (%d)\n" label t.FS.t_work t.FS.t_capped)
      modes;
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
    List.iter
      (fun (c : FS.check) ->
        Printf.printf "check %-32s %s (%s)\n" c.FS.name
          (if c.FS.ok then "ok" else "FAIL")
          c.FS.detail)
      v.FS.v_checks;
    let totals field = List.map (fun (key, _, t) -> field key t) modes in
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
               (totals (fun key t -> (key ^ "_work", J.Int t.FS.t_work))
                @ totals (fun key t -> (key ^ "_capped", J.Int t.FS.t_capped))) );
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
               (List.map (fun (c : FS.check) -> (c.FS.key, J.Bool c.FS.ok))
                  v.FS.v_checks) );
           ("queries", J.List (List.map row_doc r.FS.fr_rows)) ]);
    if FS.passed v then 0 else 1
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
    Arg.(value & opt positive_int 256 & info [ "cache" ] ~docv:"N"
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
    (* The lab's session carries a feedback store, but serving does not
       learn from it: the service plans every miss with Default estimates,
       only the re-optimization loop records into the store, and it is
       never saved. *)
    let session = Runner.session (Runner.create_lab ~seed ~scale ()) in
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
  (match Rdb_core.Checks.env () with
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
