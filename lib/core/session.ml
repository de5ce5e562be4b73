module Relset = Rdb_util.Relset
module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Db_stats = Rdb_stats.Db_stats
module Analyze = Rdb_stats.Analyze
module Estimator = Rdb_card.Estimator
module Oracle = Rdb_card.Oracle
module Plan = Rdb_plan.Plan
module Optimizer = Rdb_plan.Optimizer
module Search_space = Rdb_plan.Search_space
module Executor = Rdb_exec.Executor
module Trace = Rdb_obs.Trace

type t = {
  catalog : Catalog.t;
  stats : Db_stats.t;
  feedback : Feedback.t option;
  mutable temp_counter : int;
}

let create ?feedback catalog =
  { catalog; stats = Db_stats.create (); feedback; temp_counter = 0 }

let with_stats_of parent =
  {
    catalog = Catalog.copy parent.catalog;
    stats = Db_stats.copy parent.stats;
    (* Deliberately shared, not copied: the store is mutex-protected and
       records true cardinalities, so parallel workers learning into one
       knowledge base always agree on values. *)
    feedback = parent.feedback;
    temp_counter = 0;
  }

let catalog t = t.catalog
let stats t = t.stats
let feedback t = t.feedback

(* ANALYZE moves the statistics a plan was costed against, so it counts as
   a modification of the table: the server's plan cache keys its staleness
   check on these counters. *)
let analyze ?buckets ?mcv_slots t =
  Analyze.all ?buckets ?mcv_slots t.catalog t.stats;
  List.iter
    (fun tbl -> Catalog.touch t.catalog (Table.name tbl))
    (Catalog.tables t.catalog)

let analyze_table t name =
  let tbl = Catalog.table_exn t.catalog name in
  Db_stats.set t.stats ~table:name (Analyze.table tbl);
  Catalog.touch t.catalog name

let fresh_temp_name t =
  t.temp_counter <- t.temp_counter + 1;
  Printf.sprintf "temp_%d" t.temp_counter

let drop_temp t name =
  Catalog.drop_table t.catalog name;
  Db_stats.drop t.stats ~table:name

type prepared = {
  session : t;
  q : Query.t;
  oracle : Oracle.t;
  space : Search_space.t;
  bounds : Rdb_verify.Card_bound.t;
}

let prepare ?carry t q =
  Trace.span "session.prepare"
    ~attrs:[ ("query", q.Query.name) ]
    (fun () ->
      (match Query.validate t.catalog q with
       | Ok () -> ()
       | Error msg -> invalid_arg ("Session.prepare: " ^ msg));
      let graph = Join_graph.make q in
      {
        session = t;
        q;
        oracle = Oracle.create ?carry t.catalog q;
        space = Search_space.build graph;
        bounds =
          Rdb_verify.Card_bound.create ~catalog:t.catalog ~stats:t.stats q;
      })

let query p = p.q
let oracle p = p.oracle
let space p = p.space
let session p = p.session
let bounds p = p.bounds

(* Pessimistic mode: clamp every memoized estimate to the verifier's sound
   [lo, hi] interval before it reaches the cost model. *)
let bound_of p ~pessimistic =
  if not pessimistic then None
  else
    Some
      (fun s v ->
        let v' = Rdb_verify.Card_bound.clamp p.bounds s v in
        if v' <> v then Rdb_obs.Metrics.incr "verify.clamped";
        v')

let plan ?(checks = Checks.env ()) ?(pessimistic = false) ?uncertainty ?log p
    ~mode =
  Trace.span "session.plan"
    ~attrs:[ ("query", p.q.Query.name) ]
    (fun () ->
      let estimator =
        Estimator.create ?log ?bound:(bound_of p ~pessimistic) ~mode
          ~catalog:p.session.catalog ~stats:p.session.stats ~oracle:p.oracle
          p.q
      in
      let plan, stats =
        Optimizer.plan ~space:p.space ?uncertainty ~catalog:p.session.catalog
          ~estimator p.q
      in
      Checks.plan checks ~catalog:p.session.catalog ~estimator p.q plan;
      (plan, stats, estimator))

(* The resource certifier with the session's sound bounds: the verifier's
   cardinality intervals drive the memory/work corner evaluation, and the
   prepared search space is reused across the transition simulation's
   pinned replans. *)
let certify ?transitions ?threshold ?estimator p plan =
  Trace.span "session.certify"
    ~attrs:[ ("query", p.q.Query.name) ]
    (fun () ->
      let estimator =
        match estimator with
        | Some e -> e
        | None ->
          Estimator.create ~mode:Estimator.Default ~catalog:p.session.catalog
            ~stats:p.session.stats ~oracle:p.oracle p.q
      in
      Rdb_analysis.Resource.certify
        ~bounds:(Rdb_verify.Card_bound.interval p.bounds)
        ?transitions ?threshold ~space:p.space ~catalog:p.session.catalog
        ~estimator p.q plan)

let execute ?work_budget ?deadline_ms ?adaptive ?(learn = true) p plan =
  Trace.span "session.execute"
    ~attrs:[ ("query", p.q.Query.name) ]
    (fun () ->
      let res =
        Executor.execute ?work_budget ?deadline_ms ?adaptive
          ~catalog:p.session.catalog ~query:p.q plan
      in
      (match p.session.feedback with
       | Some fb when learn ->
         Feedback.observe fb ~catalog:p.session.catalog p.q res
       | Some _ | None -> ());
      res)

(* Feedback estimation: consult the session's store before the default
   composition. Naive mode serves every fresh correction — the paper's
   §IV-E warning is that a *partially* corrected query mixes true and
   mis-estimated cardinalities, and the optimizer, now confidently wrong,
   pivots onto estimates that are still bad. Gated mode therefore
   validates at the plan level: plan with the corrections served, give
   every confirmed subset a point envelope (its correction is a true
   cardinality by construction) and every other subset the paper's
   factor-32 error model, and ask the robustness analyzer whether any
   corner of the unconfirmed envelopes flips the chosen plan. No flip
   means the plan's shape does not depend on any estimate the store has
   not confirmed — accept it. Otherwise drop the corrections at or under
   the unconfirmed pivots ({!Feedback.gate}) and re-validate the cheaper
   mix; if even that plan pivots on an unconfirmed estimate, the query
   keeps its uncorrected default plan. *)
let feedback_mode ?(gated = false) p fb =
  let catalog = p.session.catalog in
  let lookup s = Feedback.lookup fb ~catalog p.q s in
  if not gated then Estimator.Feedback lookup
  else begin
    (* Unconfirmed estimates may be wrong by the paper's factor 32 — but
       never outside the verifier's sound cardinality bounds, whose
       intersection keeps the gate from rejecting plans over errors that
       provably cannot happen. *)
    let unconfirmed =
      Rdb_analysis.Sensitivity.intersect
        (Rdb_analysis.Sensitivity.q_envelope 32.0)
        (Rdb_analysis.Sensitivity.of_intervals
           (Rdb_verify.Card_bound.interval p.bounds))
    in
    let unconfirmed_pivots eff_lookup =
      let mode = Estimator.Feedback eff_lookup in
      let chosen, _, estimator = plan p ~mode in
      let envelope set ~est =
        match eff_lookup set with
        | Some v -> (v, v)
        | None -> unconfirmed set ~est
      in
      let report =
        Rdb_analysis.Sensitivity.analyze ~envelope ~corner_replans:true
          ~corner_limit:max_int ~space:p.space ~catalog ~estimator p.q chosen
      in
      Rdb_analysis.Sensitivity.fragile_sets report
    in
    match unconfirmed_pivots lookup with
    | [] -> Estimator.Feedback lookup
    | fragile ->
      let filtered = Feedback.gate ~fragile lookup in
      if unconfirmed_pivots filtered = [] then Estimator.Feedback filtered
      else Estimator.Default
  end
