module Query = Rdb_query.Query
module Session = Rdb_core.Session
module Reopt = Rdb_core.Reopt
module Trigger = Rdb_core.Trigger
module Estimator = Rdb_card.Estimator
module Optimizer = Rdb_plan.Optimizer
module Plan = Rdb_plan.Plan
module Executor = Rdb_exec.Executor
module Cqnf = Rdb_verify.Cqnf
module Card_bound = Rdb_verify.Card_bound
module Finding = Rdb_analysis.Finding
module Resource = Rdb_analysis.Resource
module Pool = Rdb_util.Pool
module Metrics = Rdb_obs.Metrics
module Trace = Rdb_obs.Trace
module Clock = Rdb_obs.Clock
module Json = Rdb_obs.Json

type cached = Hit | Revalidated | Miss

let cached_name = function
  | Hit -> "hit"
  | Revalidated -> "revalidated"
  | Miss -> "miss"

type response = {
  r_aggs : Value.t list;
  r_rows : int;
  r_cached : cached;
  r_plan_ms : float;
  r_exec_ms : float;
  r_reopt_steps : int;
}

type config = {
  jobs : int;
  cache_capacity : int;
  reopt : float option;
  revalidate : bool;
  work_budget : int option;
  deadline_ms : float option;
  mem_budget : float option;
  downgrade : bool;
}

let default_config =
  {
    jobs = 1;
    cache_capacity = 256;
    reopt = None;
    revalidate = false;
    work_budget = Some 200_000_000;
    deadline_ms = None;
    mem_budget = None;
    downgrade = false;
  }

type t = {
  id : int;
  config : config;
  parent : Session.t;
  state_mu : Mutex.t;  (* guards parent mutation, [generation], [closed] *)
  (* @guarded_by state_mu *)
  mutable generation : int;
  (* @guarded_by state_mu *)
  mutable closed : bool;
  pool : Pool.t;
  serial_mu : Mutex.t;  (* serializes inline execution when jobs = 1 *)
  cache : Plan_cache.t;
  next_request : int Atomic.t;
}

(* Inline (jobs = 1) submission enqueues into the pool while serialized,
   and stats movement bumps metrics counters under the state lock. *)
(* @lock_order service.serial_mu < pool.mu *)
(* @lock_order service.state_mu < metrics.smu *)

let service_ids = Atomic.make 0

let create ?(config = default_config) parent =
  if config.jobs < 1 then invalid_arg "Service.create: jobs must be >= 1";
  (* the cache constructor validates its capacity and can raise: run it
     before [Pool.create] spawns worker domains, which a raise between
     spawn and return would strand with no pool handle to shut down *)
  let cache = Plan_cache.create ~capacity:config.cache_capacity in
  {
    id = Atomic.fetch_and_add service_ids 1;
    config;
    parent;
    state_mu = Mutex.create ();
    generation = 0;
    closed = false;
    pool = Pool.create config.jobs;
    serial_mu = Mutex.create ();
    cache;
    next_request = Atomic.make 0;
  }

let cache t = t.cache
let jobs t = t.config.jobs
let config t = t.config

let generation t = Mutex.protect t.state_mu (fun () -> t.generation)

(* ---- per-domain session clones ----

   Each pool worker executes against its own [Session.with_stats_of] clone:
   shared immutable tables and statistics values, private temp-table
   namespace, private catalog/stats maps — so re-optimization
   materializations on one worker never touch another. The clone is keyed
   by (service id, generation); a stats refresh bumps the generation and
   every worker rebuilds its clone (and thereby sees the new statistics and
   modification counters) on its next request. *)

type slot = { slot_service : int; slot_generation : int; slot_session : Session.t }

(* @confined domain-local storage: each domain touches only its own slot *)
let clone_slot : slot option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let local_session t =
  let slot = Domain.DLS.get clone_slot in
  Mutex.protect t.state_mu (fun () ->
      let gen = t.generation in
      match !slot with
      | Some s when s.slot_service = t.id && s.slot_generation = gen ->
        s.slot_session
      | _ ->
        let sess = Session.with_stats_of t.parent in
        slot :=
          Some
            { slot_service = t.id; slot_generation = gen; slot_session = sess };
        sess)

(* ---- the request pipeline ---- *)

let epoch_of catalog (q : Query.t) =
  Array.to_list (Array.map (fun (r : Query.rel) -> r.Query.table) q.Query.rels)
  |> List.sort_uniq String.compare
  |> List.map (fun name -> (name, Catalog.mod_count catalog name))

(* Revalidation: the counters moved, but if every estimate recorded in the
   cached plan still lies inside the symbolic verifier's sound bounds under
   the *current* statistics, the plan cannot be provably wrong — keep it
   (LRU position and epoch refreshed) instead of paying a replan. *)
let revalidates sess canonical plan =
  let bounds =
    Card_bound.create ~catalog:(Session.catalog sess)
      ~stats:(Session.stats sess) canonical
  in
  not (Finding.has_errors (Card_bound.check_plan bounds plan))

let execute_plan t sess ?deadline_ms canonical plan =
  let deadline_ms =
    match deadline_ms with Some _ -> deadline_ms | None -> t.config.deadline_ms
  in
  let res =
    Executor.execute ?work_budget:t.config.work_budget ?deadline_ms
      ~catalog:(Session.catalog sess) ~query:canonical plan
  in
  (* Cache hits bypass Session.execute, so feed the feedback store here:
     the canonical query is exactly what was executed, and the store is
     shared across every worker clone. A later stats refresh bumps the
     modification counters and retires what was learned. *)
  (match Session.feedback sess with
   | Some fb -> Rdb_core.Feedback.observe fb ~catalog:(Session.catalog sess) canonical res
   | None -> ());
  res

(* ---- admission control ----

   With a memory budget configured, every plan the service would run is
   held against its resource certificate ([Rdb_analysis.Resource]): a
   certified peak over the budget is rejected outright, or — with
   [downgrade] — executed through the re-optimization loop instead, which
   pipelines through materialized temp tables and re-plans from true
   cardinalities, the paper's remedy for exactly the plans whose estimated
   footprint cannot be trusted. Certificates are computed once per miss
   and travel with the cached plan, so hits decide admission without
   planning. *)

exception Over_budget of string

(* The exception crosses [handle]'s Printexc boundary on its way to the
   frontend's ERR line — print it as its message, not the constructor. *)
let () =
  Printexc.register_printer (function
    | Over_budget msg -> Some msg
    | _ -> None)

let admission t (cert : Resource.cert) =
  match t.config.mem_budget with
  | None -> `Admit
  | Some budget ->
    let hi = Resource.mem_hi cert in
    if hi <= budget then `Admit
    else if t.config.downgrade then `Downgrade
    else
      `Reject
        (Printf.sprintf
           "over-budget: certified peak %.0f row-slots exceeds memory \
            budget %.0f"
           hi budget)

let count_admitted t =
  if Option.is_some t.config.mem_budget then Metrics.incr "serve.admitted"

(* The re-optimizing execution path: run the loop, write the improved plan
   (replanned with the first materialized sub-join's now-known true
   cardinality pinned through an [Estimator.Feedback] lookup) back to the
   cache with a fresh certificate — so the next hit starts from what the
   re-optimizer learned instead of re-triggering. *)
let reopt_execute t sess ?deadline_ms ~prepared ~key ~cqnf ~epoch ~threshold
    canonical =
  let outcome =
    Reopt.run ?work_budget:t.config.work_budget ?deadline_ms
      ~initial:prepared sess ~trigger:(Trigger.create threshold)
      ~mode:Estimator.Default canonical
  in
  let plan =
    match outcome.Reopt.steps with
    | [] -> outcome.Reopt.final_plan
    | first :: _ ->
      (* [materialized_set] of the first step is in the canonical query's
         own numbering (later steps renumber), and [temp_rows] is its true
         cardinality — pin it and replan. *)
      let overrides = Hashtbl.create 4 in
      Hashtbl.replace overrides first.Reopt.materialized_set
        (float_of_int (max 1 first.Reopt.temp_rows));
      let plan, _, _ =
        Session.plan prepared
          ~mode:(Estimator.Feedback (Hashtbl.find_opt overrides))
      in
      Metrics.incr "cache.writebacks";
      (* Reopt.run has already recorded the materialized true
         cardinalities into the session's feedback store (re-keyed to
         the canonical query), so the write-back is persistent: future
         *similar* queries — not just this cached form — start from
         them. Count those write-backs distinctly. *)
      if Option.is_some (Session.feedback sess) then
        Metrics.incr "feedback.writebacks";
      plan
  in
  let cert = Session.certify prepared plan in
  Plan_cache.insert t.cache ~key ~cqnf ~canonical ~plan ~cert ~epoch ();
  ( outcome.Reopt.final_exec,
    outcome.Reopt.total_plan_ms,
    outcome.Reopt.total_exec_ms,
    List.length outcome.Reopt.steps )

(* The Q-error threshold of a downgraded execution: the configured re-opt
   threshold when the service already re-optimizes, an aggressive default
   otherwise — a downgrade exists to re-plan from true cardinalities, not
   to run the rejected plan as-is. *)
let downgrade_threshold t =
  match t.config.reopt with Some th -> th | None -> 2.0

(* A miss plans the canonical query, certifies the plan, and caches both. *)
let plan_and_execute t sess ?deadline_ms ~key ~cqnf ~epoch canonical =
  let prepared = Session.prepare sess canonical in
  let deadline_ms =
    match deadline_ms with Some _ -> deadline_ms | None -> t.config.deadline_ms
  in
  match t.config.reopt with
  | None ->
    let plan, pstats, estimator =
      Session.plan prepared ~mode:Estimator.Default
    in
    let cert = Session.certify ~estimator prepared plan in
    (* Cache even a rejected plan: planning cost is sunk, the certificate
       rides along, and the next request under a laxer budget — or the
       next rejection — resolves from the cache. *)
    Plan_cache.insert t.cache ~key ~cqnf ~canonical ~plan ~cert ~epoch ();
    (match admission t cert with
     | `Reject msg ->
       Metrics.incr "serve.rejected";
       raise (Over_budget msg)
     | `Downgrade ->
       Metrics.incr "serve.downgraded";
       reopt_execute t sess ?deadline_ms ~prepared ~key ~cqnf ~epoch
         ~threshold:(downgrade_threshold t) canonical
     | `Admit ->
       count_admitted t;
       let res =
         Session.execute ?work_budget:t.config.work_budget ?deadline_ms
           prepared plan
       in
       (res, pstats.Optimizer.plan_ms, res.Executor.elapsed_ms, 0))
  | Some threshold ->
    (match t.config.mem_budget with
     | Some _ ->
       (* Budgeted: the re-opt loop's first materialization already
          executes part of the default plan, so admission must hold the
          *initial* plan's certificate against the budget before any
          execution starts. *)
       let plan, _, estimator = Session.plan prepared ~mode:Estimator.Default in
       let cert = Session.certify ~estimator prepared plan in
       (match admission t cert with
        | `Reject msg ->
          Plan_cache.insert t.cache ~key ~cqnf ~canonical ~plan ~cert ~epoch ();
          Metrics.incr "serve.rejected";
          raise (Over_budget msg)
        | (`Admit | `Downgrade) as d ->
          (* Re-optimizing execution already is the downgraded mode. *)
          (match d with
           | `Admit -> count_admitted t
           | `Downgrade -> Metrics.incr "serve.downgraded");
          reopt_execute t sess ?deadline_ms ~prepared ~key ~cqnf ~epoch
            ~threshold canonical)
     | None ->
       reopt_execute t sess ?deadline_ms ~prepared ~key ~cqnf ~epoch
         ~threshold canonical)

let process t sess ?deadline_ms (q : Query.t) =
  let catalog = Session.catalog sess in
  let cqnf = Cqnf.of_query ~catalog q in
  let key = Cqnf.fingerprint cqnf in
  let epoch = epoch_of catalog q in
  let miss () =
    Metrics.incr "cache.misses";
    let canonical = Cqnf.to_query ~name:q.Query.name cqnf in
    let res, plan_ms, exec_ms, steps =
      plan_and_execute t sess ?deadline_ms ~key ~cqnf ~epoch canonical
    in
    (res, Miss, plan_ms, exec_ms, steps)
  in
  (* A cached entry's certificate decides admission without planning; a
     downgraded hit re-prepares and runs the re-opt loop instead of the
     cached plan. *)
  let cached_admit label canonical plan cert =
    match admission t cert with
    | `Reject msg ->
      Metrics.incr "serve.rejected";
      raise (Over_budget msg)
    | `Downgrade ->
      Metrics.incr "serve.downgraded";
      let prepared = Session.prepare sess canonical in
      let res, plan_ms, exec_ms, steps =
        reopt_execute t sess ?deadline_ms ~prepared ~key ~cqnf ~epoch
          ~threshold:(downgrade_threshold t) canonical
      in
      (res, label, plan_ms, exec_ms, steps)
    | `Admit ->
      count_admitted t;
      let res = execute_plan t sess ?deadline_ms canonical plan in
      (res, label, 0.0, res.Executor.elapsed_ms, 0)
  in
  let res, cached, plan_ms, exec_ms, steps =
    match Plan_cache.lookup t.cache ~key ~cqnf ~epoch with
    | Plan_cache.Hit (canonical, plan, cert) ->
      Metrics.incr "cache.hits";
      cached_admit Hit canonical plan cert
    | Plan_cache.Stale (canonical, plan, cert) ->
      if t.config.revalidate && revalidates sess canonical plan then begin
        Plan_cache.refresh t.cache ~key ~epoch;
        Metrics.incr "cache.hits";
        Metrics.incr "cache.revalidations";
        cached_admit Revalidated canonical plan cert
      end
      else begin
        Plan_cache.remove t.cache ~key;
        Metrics.incr "cache.invalidations";
        miss ()
      end
    | Plan_cache.Miss -> miss ()
  in
  Metrics.observe "serve.plan_ms" plan_ms;
  Metrics.observe "serve.exec_ms" exec_ms;
  {
    r_aggs = res.Executor.aggs;
    r_rows = res.Executor.out_rows;
    r_cached = cached;
    r_plan_ms = plan_ms;
    r_exec_ms = exec_ms;
    r_reopt_steps = steps;
  }

let handle t ?deadline_ms source =
  let t0 = Clock.now_ms () in
  Metrics.incr "serve.requests";
  match
    Trace.span "serve.request" (fun () ->
        let sess = local_session t in
        let q =
          match source with
          | `Bound q ->
            (* Not bound by [Binder], so validated here, as the binder does. *)
            (match Query.validate (Session.catalog sess) q with
             | Ok () -> q
             | Error msg -> failwith msg)
          | `Sql sql ->
            let name =
              Printf.sprintf "r%d" (Atomic.fetch_and_add t.next_request 1)
            in
            (match
               Rdb_sql.Binder.bind (Session.catalog sess) ~name
                 (Rdb_sql.Parser.parse sql)
             with
             | Ok q -> q
             | Error msg -> failwith msg)
        in
        process t sess ?deadline_ms q)
  with
  | resp ->
    Metrics.observe "serve.ms" (Clock.ms_since t0);
    Ok resp
  | exception e ->
    Metrics.observe "serve.ms" (Clock.ms_since t0);
    Metrics.incr "serve.errors";
    Error (Printexc.to_string e)

let submit_source t ?deadline_ms source =
  let closed = Mutex.protect t.state_mu (fun () -> t.closed) in
  if closed then invalid_arg "Service.submit: service is shut down";
  if Pool.jobs t.pool = 1 then
    (* A 1-job pool runs the task inline on the submitting thread; several
       socket threads can submit concurrently, so serialize them — worker
       domains provide the real parallelism when [jobs > 1]. *)
    Mutex.protect t.serial_mu (fun () ->
        Pool.submit t.pool (fun () -> handle t ?deadline_ms source))
  else Pool.submit t.pool (fun () -> handle t ?deadline_ms source)

let submit t ?deadline_ms sql = submit_source t ?deadline_ms (`Sql sql)

let submit_bound t ?deadline_ms q = submit_source t ?deadline_ms (`Bound q)

let query t ?deadline_ms sql = Pool.await (submit t ?deadline_ms sql)

let query_bound t ?deadline_ms q = Pool.await (submit_bound t ?deadline_ms q)

(* The [\resources] frontend command: the admission configuration, the
   admission counters, and every cached entry's certificate, one JSON
   object. *)
let resources_json t =
  let snap = Metrics.snapshot () in
  Json.Obj
    [
      ( "budget",
        match t.config.mem_budget with
        | Some b -> Json.Float b
        | None -> Json.Null );
      ("downgrade", Json.Bool t.config.downgrade);
      ("admitted", Json.Int (Metrics.counter snap "serve.admitted"));
      ("rejected", Json.Int (Metrics.counter snap "serve.rejected"));
      ("downgraded", Json.Int (Metrics.counter snap "serve.downgraded"));
      ( "entries",
        Json.List
          (List.map
             (fun (key, (canonical : Query.t), _plan, _epoch, hits, cert) ->
               Json.Obj
                 [
                   ("key", Json.Str key);
                   ("query", Json.Str canonical.Query.name);
                   ("hits", Json.Int hits);
                   ("cert", Resource.to_json cert);
                 ])
             (Plan_cache.entries t.cache)) );
    ]

(* ---- statistics movement ---- *)

let refresh_stats t ?buckets ?mcv_slots () =
  Mutex.protect t.state_mu (fun () ->
      Session.analyze ?buckets ?mcv_slots t.parent;
      t.generation <- t.generation + 1;
      Metrics.incr "serve.stats_refreshes")

let touch_table t name =
  Mutex.protect t.state_mu (fun () ->
      Catalog.touch (Session.catalog t.parent) name;
      t.generation <- t.generation + 1)

let shutdown t =
  Mutex.protect t.state_mu (fun () -> t.closed <- true);
  Pool.shutdown t.pool
