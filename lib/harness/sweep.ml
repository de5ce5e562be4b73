module Query = Rdb_query.Query
module Session = Rdb_core.Session
module Reopt = Rdb_core.Reopt
module Checks = Rdb_core.Checks
module Estimator = Rdb_card.Estimator
module Executor = Rdb_exec.Executor
module Finding = Rdb_analysis.Finding
module Query_lint = Rdb_analysis.Query_lint
module Plan_lint = Rdb_analysis.Plan_lint
module Resource = Rdb_analysis.Resource
module Sensitivity = Rdb_analysis.Sensitivity
module Interval = Rdb_cost.Interval
module Card_bound = Rdb_verify.Card_bound

type findings = (string * Finding.t) list

let context ?label (q : Query.t) =
  match label with
  | None -> q.Query.name
  | Some l -> Printf.sprintf "%s [%s]" q.Query.name l

let query_of ctx =
  match String.index_opt ctx ' ' with
  | Some i -> String.sub ctx 0 i
  | None -> ctx

(* The loop every sweep shares: each query (default: the lab's workload)
   with its prepared context from the lab, and a [report] that files
   findings under a context. Returns [f]'s results and the findings in
   collection order. *)
let per_query ?queries lab f =
  let found = ref [] in
  let results =
    List.map
      (fun q -> f (Finding.add found) q (Runner.prepared_of lab q))
      (Option.value queries ~default:(Runner.queries lab))
  in
  (results, List.rev !found)

let plan ?pessimistic lab q prepared config =
  Session.plan ?pessimistic prepared ~mode:(Runner.mode_of_config lab q config)

(* The re-optimization pass of lint and verify: budgeted by the lab, with
   the temp tables kept in the catalog while [k] inspects the outcome and
   dropped afterwards. Returns whether the run was capped; a failed inline
   check is reported under "name [reopt]". *)
let reopt_pass ?checks ~threshold ~report lab q k =
  let session = Runner.session lab in
  match
    Reopt.run ?checks ~work_budget:(Runner.work_budget lab)
      ~deadline_ms:(Runner.deadline_ms lab) ~cleanup:false
      ~initial:(Runner.prepared_of lab q) session
      ~trigger:(Rdb_core.Trigger.create threshold) ~mode:Estimator.Default q
  with
  | outcome ->
    k outcome;
    List.iter
      (fun (s : Reopt.step) -> Session.drop_temp session s.Reopt.temp_name)
      outcome.Reopt.steps;
    false
  | exception Executor.Work_budget_exceeded _ -> true
  | exception Checks.Check_failed (_, findings) ->
    report (context ~label:"reopt" q) findings;
    false

let step_context q (s : Reopt.step) =
  context ~label:("reopt step " ^ s.Reopt.temp_name) q

type counts = { n_plans : int; n_steps : int; n_capped : int }

let counts ~plans ~steps capped =
  { n_plans = plans; n_steps = steps;
    n_capped = List.length (List.filter Fun.id capped) }

let lint ?queries ~threshold ~perfect_n lab =
  let catalog = Session.catalog (Runner.session lab) in
  let n_plans = ref 0 and n_steps = ref 0 in
  let capped, findings =
    per_query ?queries lab (fun report q prepared ->
        report (context q) (Query_lint.check ~catalog q);
        List.iter
          (fun config ->
            let at = context ~label:(Runner.config_name config) q in
            match plan lab q prepared config with
            | plan, _, est ->
              incr n_plans;
              report at (Plan_lint.check ~catalog ~estimator:est q plan);
              (* On the default config only: the plan-robustness analyzer,
                 with a few corner replans to surface joins whose estimate
                 the plan choice hinges on, and the static resource
                 certifier's well-formedness findings. *)
              if config = Runner.Default then begin
                report at
                  (Sensitivity.check ~threshold ~corner_replans:true
                     ~corner_limit:4 ~space:(Session.space prepared) ~catalog
                     ~estimator:est q plan);
                report at
                  (Resource.findings q
                     (Session.certify ~estimator:est prepared plan))
              end
            (* With RDB_CHECKS set the inline checks raise before we can
               report; keep sweeping the other configs. *)
            | exception Checks.Check_failed (_, findings) -> report at findings)
          [ Runner.Default; Runner.Perfect perfect_n ];
        (* With the Lint check every intermediate plan and rewritten query
           is invariant-checked in the loop itself (raising on error
           findings); on success, re-lint the rewrite steps here to surface
           warning-severity findings too. *)
        reopt_pass ~checks:(Checks.Lint :: Checks.env ()) ~threshold ~report
          lab q (fun outcome ->
            incr n_plans;
            List.iter
              (fun s ->
                incr n_steps;
                report (step_context q s)
                  (Query_lint.check ~catalog s.Reopt.query_after))
              outcome.Reopt.steps;
            report
              (context ~label:"reopt final" q)
              (Plan_lint.check ~catalog outcome.Reopt.final_query
                 outcome.Reopt.final_plan)))
  in
  (counts ~plans:!n_plans ~steps:!n_steps capped, findings)

let verify ?queries ~threshold ~perfect_n ~gen ~seed lab =
  let session = Runner.session lab in
  let catalog = Session.catalog session and stats = Session.stats session in
  (* The generated data must satisfy the schema's declared keys and FKs:
     they are what make the bounds sound. *)
  let constraints =
    List.map (fun f -> ("constraints", f)) (Card_bound.check_constraints catalog)
  in
  let n_plans = ref 0 in
  let check_plan report at bounds plan =
    incr n_plans;
    report at (Card_bound.check_plan bounds plan)
  in
  let capped, workload =
    per_query ?queries lab (fun report q prepared ->
        (* The bounds depend only on data and constraints, so the prepared
           query's one context serves every configuration's plan. *)
        let bounds = Session.bounds prepared in
        List.iter
          (fun (config, pessimistic) ->
            let label =
              if pessimistic then "pessimistic" else Runner.config_name config
            in
            let plan, _, _ = plan ~pessimistic lab q prepared config in
            check_plan report (context ~label q) bounds plan)
          [ (Runner.Default, false); (Runner.Perfect perfect_n, false);
            (Runner.Default, true) ];
        (* Prove every rewrite step equivalent to its pre-step query, and
           bound-check the final plan against the final query (temp tables
           still in the catalog). *)
        reopt_pass ~threshold ~report lab q (fun outcome ->
            ignore
              (List.fold_left
                 (fun original (s : Reopt.step) ->
                   report (step_context q s)
                     (Rdb_verify.Equiv.check_step ~catalog ~original
                        ~set:s.Reopt.materialized_set
                        ~temp_cols:
                          (Reopt.needed_cols original s.Reopt.materialized_set)
                        ~temp_name:s.Reopt.temp_name s.Reopt.query_after);
                   s.Reopt.query_after)
                 q outcome.Reopt.steps);
            if outcome.Reopt.steps <> [] then
              check_plan report
                (context ~label:"reopt final" q)
                (Card_bound.create ~catalog ~stats outcome.Reopt.final_query)
                outcome.Reopt.final_plan))
  in
  (* The workload exercises fixed shapes; the seeded generator adds fresh
     FK-join shapes and predicate constants, bound-checked the same way.
     Generated queries are prepared outside the lab, whose cache is keyed
     by query name. *)
  let generated = ref [] in
  let g = Rdb_verify.Query_gen.create ~catalog in
  let prng = Rdb_util.Prng.create seed in
  for i = 1 to gen do
    let q = Rdb_verify.Query_gen.gen g prng ~name:(Printf.sprintf "gen%d" i) in
    let bounds = Card_bound.create ~catalog ~stats q in
    let prepared = Session.prepare session q in
    let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
    check_plan (Finding.add generated) (context ~label:"default" q) bounds plan
  done;
  let findings = constraints @ workload @ List.rev !generated in
  let proved = Finding.by_code "rewrite-proved" (List.map snd findings) in
  (counts ~plans:!n_plans ~steps:(List.length proved) capped, findings)

type resource_row = {
  rr_query : string;
  rr_cert : Resource.cert;
  rr_peak : int;
  rr_work : int;
  rr_capped : bool;
}

(* Tolerance for holding integer executor counters against float interval
   endpoints. *)
let slack = 0.5

(* A certificate must dominate a real (non-adaptive) execution. A capped
   run still observed a prefix of the full execution, so hi-bounds apply;
   lo-bounds only constrain complete runs. *)
let unsound what v (i : Interval.t) ~capped =
  let v = float_of_int v in
  let escape verb side bound =
    [ Finding.error ~code:"resource-cert-unsound"
        (Printf.sprintf "observed %s %.0f %s certified %s-bound %.1f" what v
           verb side bound) ]
  in
  (if (not capped) && v < i.Interval.lo -. slack then
     escape "undercuts" "lo" i.Interval.lo
   else [])
  @
  if v > i.Interval.hi +. slack then escape "exceeds" "hi" i.Interval.hi
  else []

let resources ?budget ~threshold lab =
  per_query lab (fun report q prepared ->
      let name = q.Query.name in
      let plan, _, estimator = Session.plan prepared ~mode:Estimator.Default in
      let cert =
        Session.certify ~transitions:true ~threshold ~estimator prepared plan
      in
      report name (Resource.findings ?budget q cert);
      let row = { rr_query = name; rr_cert = cert; rr_peak = 0; rr_work = 0;
                  rr_capped = false } in
      match
        Session.execute ~work_budget:(Runner.work_budget lab)
          ~deadline_ms:(Runner.deadline_ms lab) ~learn:false prepared plan
      with
      | res ->
        List.iter
          (fun (what, v, i) -> report name (unsound what v i ~capped:false))
          [ ("work", res.Executor.work, cert.Resource.cert_work);
            ("peak memory", res.Executor.peak_rows, cert.Resource.cert_mem);
            ("output rows", res.Executor.out_rows, cert.Resource.cert_out) ];
        { row with rr_peak = res.Executor.peak_rows; rr_work = res.Executor.work }
      | exception Executor.Work_budget_exceeded { spent; _ } ->
        report name (unsound "work" spent cert.Resource.cert_work ~capped:true);
        { row with rr_work = spent; rr_capped = true })

let fragility_thresholds = [ 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 ]

type at_threshold = {
  at_predicted : Sensitivity.prediction option;
  at_fragile : int;
  at_blind : int;
  at_robust : bool;
}

type fragile_query = {
  fq_query : string;
  fq_joins : int;
  fq_report : Sensitivity.report;
  fq_flips : Sensitivity.fragility list;
  fq_by_threshold : at_threshold list;
}

let fragility ?queries ~envelope ~bounds ~corner_limit lab =
  let session = Runner.session lab in
  let catalog = Session.catalog session in
  let corner_limit = if corner_limit <= 0 then max_int else corner_limit in
  per_query ?queries lab (fun report q prepared ->
      let plan, _, est = Session.plan prepared ~mode:Estimator.Default in
      let envelope =
        let q_env = Sensitivity.q_envelope envelope in
        if not bounds then q_env
        else
          Sensitivity.intersect q_env
            (Sensitivity.of_intervals
               (Card_bound.interval (Session.bounds prepared)))
      in
      (* One interval interpretation and one set of corner replans per
         query: the envelope is fixed, only the trigger threshold is swept,
         so flips are classified per threshold afterwards. *)
      let r =
        Sensitivity.analyze ~envelope ~threshold:(List.hd fragility_thresholds)
          ~corner_replans:true ~corner_limit ~space:(Session.space prepared)
          ~catalog ~estimator:est q plan
      in
      (* Error findings (interval cost-model mismatches) give the sweep the
         analysis commands' exit-code contract; the per-join findings are
         what the flips report. *)
      report (context q) (Finding.errors (Sensitivity.findings q r));
      let flips =
        List.filter
          (fun (f : Sensitivity.fragility) -> f.Sensitivity.frag_flips <> None)
          r.Sensitivity.fragilities
      in
      let at t =
        let predicted =
          Sensitivity.predict_trigger ~envelope ~threshold:t q plan
        in
        let fragile, blind =
          List.partition
            (fun (f : Sensitivity.fragility) -> f.Sensitivity.frag_q_error >= t)
            flips
        in
        { at_predicted = predicted; at_fragile = List.length fragile;
          at_blind = List.length blind;
          at_robust = predicted = None && flips = [] }
      in
      { fq_query = q.Query.name; fq_joins = Rdb_plan.Plan.n_joins plan;
        fq_report = r; fq_flips = flips;
        fq_by_threshold = List.map at fragility_thresholds })
