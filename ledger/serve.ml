(* The two service workloads: [Service] with two worker domains, warmed up
   with every workload query, then closed-loop client domains sending SQL
   texts through [Service.query] — half of them alias-renamed variants,
   which only the CQNF-keyed plan cache recognises as the same query.

   serve-hot: the cache holds every canonical form, so every request is a
   hit and parse, bind, CQNF, cache and execution are all that is left.
   serve-churn: the cache holds about half the working set, and client 0
   re-ANALYZEs every table after each [refresh_every] of its own
   requests, so evictions and invalidations force misses that prepare,
   plan and certify.

   The traced run replays the same seeded streams on one domain, through
   the calls [Service.process] makes — Cqnf, a plan cache owned by the
   ledger, Session, Executor, Feedback — so each layer is timed and every
   cache count repeats exactly. *)

module Session = Rdb_core.Session
module Feedback = Rdb_core.Feedback
module Service = Rdb_server.Service
module Plan_cache = Rdb_server.Plan_cache
module Cqnf = Rdb_verify.Cqnf
module Estimator = Rdb_card.Estimator
module Executor = Rdb_exec.Executor
module Query = Rdb_query.Query
module Metrics = Rdb_obs.Metrics
module Json = Rdb_obs.Json
module Pool = Rdb_util.Pool
module Prng = Rdb_util.Prng

type kind = Hot | Churn

let name = function Hot -> "serve-hot" | Churn -> "serve-churn"

let jobs = 2

(* serve-hot's cache holds all 113 canonical forms; serve-churn's about
   half of them. *)
let capacity = function Hot -> 256 | Churn -> 64

let refresh_every = 125

let clients () = min 2 (Domain.recommended_domain_count ())

(* Requests per second of --seconds in the traced replay, about what one
   domain serves on the reference machine: the replay takes roughly
   --seconds, yet its length depends on the arguments alone. *)
let replay_rate = function Hot -> 120.0 | Churn -> 40.0

(* The serving session carries a feedback store, as [reoptdb serve]'s
   does. *)
let build ~scale ~n =
  let db = Db.build ~feedback:(Feedback.create ()) ~scale ~n () in
  let variants =
    Array.map
      (fun (name, text) ->
        Rdb_sql.Unparse.query db.catalog
          (Rdb_verify.Query_gen.rename_aliases
             (Db.parse_bind db.catalog ~name text)))
      db.sql
  in
  (db, variants)

(* Client [c]'s request stream, (query index, send the variant?): seeded
   shuffles of blocks that hold every query [copies] times, so every seed
   sends the same mix. serve-hot's blocks are permutations; serve-churn's
   hold three copies, which leaves reuse distances random enough for the
   LRU to hit about half the time, as uniform draws would. *)
let stream kind ~seed ~n c =
  let prng = Prng.create ((seed * 1009) + c) in
  let copies = match kind with Hot -> 1 | Churn -> 3 in
  let block = Array.init (copies * n) (fun i -> i mod n) in
  let pos = ref (Array.length block) in
  fun () ->
    if !pos = Array.length block then begin
      Prng.shuffle prng block;
      pos := 0
    end;
    let i = block.(!pos) in
    incr pos;
    (i, Prng.bool prng)

let text_of (db : Db.t) variants (i, variant) =
  if variant then variants.(i) else snd db.sql.(i)

(* ---- untraced: the service itself ---- *)

type served = {
  db : Db.t;
  variants : string array;
  service : Service.t;
  warm : Db.checker;
  warm_failed : int;
}

(* Set-up: the database, the service, and a warm-up that submits every
   query at once; the warm-up's answers are checked too. *)
let setup_service kind ~scale ~n expected =
  let db, variants = build ~scale ~n in
  let config =
    {
      Service.default_config with
      jobs;
      cache_capacity = capacity kind;
      work_budget = Some Db.work_budget;
    }
  in
  let service = Service.create ~config db.session in
  let checker = Db.checker expected in
  let futures =
    Array.map (fun (_, text) -> Service.submit service text) db.sql
  in
  let warm_failed =
    Array.to_list futures
    |> List.mapi (fun i f ->
        match Pool.await f with
        | Ok r -> not (Db.check checker (fst db.sql.(i)) r.Service.r_aggs)
        | Error _ -> true)
    |> List.filter Fun.id |> List.length
  in
  { db; variants; service; warm = checker; warm_failed }

let release s = Service.shutdown s.service

let measure_service kind ~seconds ~max_requests ~seed s checker =
  Db.merge checker s.warm;
  let n = Array.length s.db.sql in
  let clients = clients () in
  let per_client = max 1 (max_requests / clients) in
  let before = Metrics.snapshot () in
  let start = Span.now_ns () in
  let deadline = Int64.add start (Int64.of_float (seconds *. 1e9)) in
  let client c () =
    let next = stream kind ~seed ~n c in
    let own = Db.checker checker.Db.expected in
    let lats = ref [] and failed = ref 0 and sent = ref 0 in
    while !sent < per_client && Span.now_ns () < deadline do
      let ((i, _) as req) = next () in
      let t0 = Span.now_ns () in
      (match Service.query s.service (text_of s.db s.variants req) with
       | Ok r when Db.check own (fst s.db.sql.(i)) r.Service.r_aggs -> ()
       | Ok _ | Error _ -> incr failed);
      lats := Span.ms_since t0 :: !lats;
      incr sent;
      if kind = Churn && c = 0 && !sent mod refresh_every = 0 then
        Service.refresh_stats s.service ()
    done;
    (!lats, !failed, own, Span.now_ns ())
  in
  let results =
    if clients = 1 then [ client 0 () ]
    else
      let domains = List.init clients (fun c -> Domain.spawn (client c)) in
      List.map Domain.join domains
  in
  let after = Metrics.snapshot () in
  let wall_ms =
    List.fold_left
      (fun acc (_, _, _, stop) -> max acc (Span.ms_between start stop))
      0.0 results
  in
  List.iter (fun (_, _, own, _) -> Db.merge checker own) results;
  let lats =
    Array.of_list (List.concat_map (fun (l, _, _, _) -> l) results)
  in
  Array.sort compare lats;
  let requests = Array.length lats in
  let stream_failed =
    List.fold_left (fun acc (_, f, _, _) -> acc + f) 0 results
  in
  let dc k = Metrics.counter after k - Metrics.counter before k in
  let serve_ms =
    let sum snap =
      match List.assoc_opt "serve.ms" snap.Metrics.stats with
      | Some st -> st.Metrics.sum
      | None -> 0.0
    in
    sum after -. sum before
  in
  let client_ms = Array.fold_left ( +. ) 0.0 lats in
  let hits = dc "cache.hits" and misses = dc "cache.misses" in
  let attempted = requests + n and failed = stream_failed + s.warm_failed in
  {
    Report.workload = name kind;
    traced = false;
    attempted;
    failed;
    metrics =
      [
        ( "throughput_qps",
          float_of_int (requests - stream_failed) /. (wall_ms /. 1000.0),
          "1/s" );
        ("latency_p50_ms", Db.percentile lats 0.50, "ms");
        ("latency_p90_ms", Db.percentile lats 0.90, "ms");
        ("latency_samples", float_of_int requests, "count");
        ("error_rate", float_of_int failed /. float_of_int attempted, "ratio");
        ( "server.pool.wait_ms_mean",
          (client_ms -. serve_ms) /. float_of_int requests,
          "ms" );
        ( "server.plan_cache.hit_rate",
          float_of_int hits /. float_of_int (max 1 (hits + misses)),
          "ratio" );
        ( "server.plan_cache.evictions",
          float_of_int (dc "cache.evictions"),
          "count" );
        ( "server.plan_cache.invalidations",
          float_of_int (dc "cache.invalidations"),
          "count" );
        ( "serve.stats_refreshes",
          float_of_int (dc "serve.stats_refreshes"),
          "count" );
      ];
    det = [ ("answers.digest", Json.Str (Db.digest checker.Db.seen)) ];
  }

(* ---- traced: the single-domain replay ---- *)

(* [Service]'s epoch of a query: each table it reads, with the catalog's
   modification counter. *)
let epoch_of catalog (q : Query.t) =
  Array.to_list (Array.map (fun (r : Query.rel) -> r.Query.table) q.Query.rels)
  |> List.sort_uniq String.compare
  |> List.map (fun t -> (t, Catalog.mod_count catalog t))

type replay_counts = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable work : int;
}

(* One request, mirroring [Service.process] call for call. *)
let replay_request ~cache ~feedback counts sess ~name text =
  let catalog = Session.catalog sess in
  let q = Span.time "sql" (fun () -> Db.parse_bind catalog ~name text) in
  let cqnf, key =
    Span.time "verify.cqnf" (fun () ->
        let c = Cqnf.of_query ~catalog q in
        (c, Cqnf.fingerprint c))
  in
  let epoch, lookup =
    Span.time "server.plan_cache" (fun () ->
        let epoch = epoch_of catalog q in
        (epoch, Plan_cache.lookup cache ~key ~cqnf ~epoch))
  in
  let miss () =
    counts.misses <- counts.misses + 1;
    let canonical =
      Span.time "verify.cqnf" (fun () -> Cqnf.to_query ~name:q.Query.name cqnf)
    in
    let p = Span.time "core.session" (fun () -> Session.prepare sess canonical) in
    let plan, _, estimator =
      Span.time "plan.optimizer" (fun () ->
          Session.plan p ~mode:Estimator.Default)
    in
    let cert =
      Span.time "analysis.resource" (fun () -> Session.certify ~estimator p plan)
    in
    Span.time "server.plan_cache" (fun () ->
        Plan_cache.insert cache ~key ~cqnf ~canonical ~plan ~cert ~epoch ());
    let res =
      Span.time "exec.executor" (fun () ->
          Session.execute ~work_budget:Db.work_budget ~learn:false p plan)
    in
    (canonical, res)
  in
  let canonical, res =
    match lookup with
    | Plan_cache.Hit (canonical, plan, _cert) ->
      counts.hits <- counts.hits + 1;
      ( canonical,
        Span.time "exec.executor" (fun () ->
            Executor.execute ~work_budget:Db.work_budget ~catalog
              ~query:canonical plan) )
    | Plan_cache.Stale _ ->
      Span.time "server.plan_cache" (fun () -> Plan_cache.remove cache ~key);
      counts.invalidations <- counts.invalidations + 1;
      miss ()
    | Plan_cache.Miss -> miss ()
  in
  Span.time "core.feedback" (fun () ->
      Feedback.observe feedback ~catalog canonical res);
  counts.work <- counts.work + res.Executor.work;
  res.Executor.aggs

(* The warm-up, then [seconds * replay_rate] requests taken from the
   clients' streams in turn, with client 0's refreshes where it would make
   them. *)
let replay kind ~seconds ~max_requests ~seed ~scale ~n ~recorder checker =
  let db, variants = build ~scale ~n in
  let feedback = Option.get (Session.feedback db.session) in
  let cache = Plan_cache.create ~capacity:(capacity kind) in
  let sess = ref (Session.with_stats_of db.session) in
  let counts = { hits = 0; misses = 0; invalidations = 0; work = 0 } in
  let clients = clients () in
  let streams = Array.init clients (stream kind ~seed ~n) in
  let stream_requests =
    min max_requests (int_of_float (Float.round (seconds *. replay_rate kind)))
  in
  let failed = ref 0 and req = ref 0 in
  let send i text =
    let name = fst db.sql.(i) in
    let aggs =
      Span.request !req (fun () ->
          match replay_request ~cache ~feedback counts !sess ~name text with
          | aggs -> Some aggs
          | exception e when Job.is_failure e -> None)
    in
    incr req;
    match aggs with
    | Some aggs when Db.check checker name aggs -> ()
    | Some _ | None -> incr failed
  in
  (* the cache counts of the stream alone, after the warm-up *)
  let cache_counts () =
    ( counts.hits,
      counts.misses,
      counts.invalidations,
      Metrics.counter (Metrics.snapshot ()) "cache.evictions" )
  in
  let dp_before = Metrics.counter (Metrics.snapshot ()) "plan.dp_pairs" in
  let warm = ref (cache_counts ()) in
  let start = Span.now_ns () in
  Span.with_recorder recorder (fun () ->
      Array.iteri (fun i (_, text) -> send i text) db.sql;
      warm := cache_counts ();
      for k = 0 to stream_requests - 1 do
        let c = k mod clients in
        let ((i, _) as r) = streams.(c) () in
        send i (text_of db variants r);
        let own = (k / clients) + 1 in
        if kind = Churn && c = 0 && own mod refresh_every = 0 then begin
          Span.time "stats.analyze" (fun () -> Session.analyze db.session);
          sess :=
            Span.time "core.session" (fun () ->
                Session.with_stats_of db.session)
        end
      done);
  let wall_ms = Span.ms_since start in
  let requests = !req in
  let per_request x = float_of_int x /. float_of_int requests in
  let hits, misses, invalidations, evictions =
    let h0, m0, i0, e0 = !warm and h1, m1, i1, e1 = cache_counts () in
    (h1 - h0, m1 - m0, i1 - i0, e1 - e0)
  in
  let dp_pairs =
    Metrics.counter (Metrics.snapshot ()) "plan.dp_pairs" - dp_before
  in
  let counted =
    [
      ("plan.optimizer.dp_pairs_per_query", per_request dp_pairs, "count");
      ("exec.executor.work_per_query", per_request counts.work, "count");
      ("exec.materialize.work_per_query", 0.0, "count");
      ("storage.temp_table.rows_per_query", 0.0, "count");
      ("core.reopt.steps_per_query", 0.0, "count");
      ( "server.plan_cache.hit_rate",
        float_of_int hits /. float_of_int (max 1 (hits + misses)),
        "ratio" );
      ("server.plan_cache.evictions", float_of_int evictions, "count");
      ("server.plan_cache.invalidations", float_of_int invalidations, "count");
    ]
  in
  {
    Report.workload = name kind;
    traced = true;
    attempted = requests;
    failed = !failed;
    metrics =
      Report.traced_times recorder ~wall_ms ~requests ~exec_work:counts.work
      @ counted
      @ [
          ("latency_samples", float_of_int requests, "count");
          ("error_rate", float_of_int !failed /. float_of_int requests, "ratio");
        ];
    det =
      ("answers.digest", Json.Str (Db.digest checker.Db.seen))
      :: ("server.plan_cache.hits", Json.Int hits)
      :: ("server.plan_cache.misses", Json.Int misses)
      :: List.map (fun (k, v, _) -> (k, Json.Float v)) counted;
  }
