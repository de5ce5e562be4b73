module Query = Rdb_query.Query
module Estimator = Rdb_card.Estimator
module Plan = Rdb_plan.Plan
module Session = Rdb_core.Session
module Service = Rdb_server.Service
module Plan_cache = Rdb_server.Plan_cache
module Cqnf = Rdb_verify.Cqnf
module Query_gen = Rdb_verify.Query_gen
module Metrics = Rdb_obs.Metrics
module Job = Rdb_imdb.Job_queries
module Prng = Rdb_util.Prng

let check = Alcotest.check

let make_session ?(scale = 0.01) ?(seed = 42) () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~seed ~scale () in
  let session = Session.create catalog in
  Session.analyze session;
  (catalog, session)

let make_service ?scale ?seed ?(config = Service.default_config) () =
  let catalog, session = make_session ?scale ?seed () in
  (catalog, Service.create ~config session)

(* Cold-path oracle: plan and execute on a plain session, no cache. *)
let cold_run session q =
  let prepared = Session.prepare session q in
  let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
  Session.execute prepared plan

let delta before after key = Metrics.counter after key - Metrics.counter before key

let values =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Value.to_string v))
    Value.equal

let ok_response name = function
  | Ok (r : Service.response) -> r
  | Error e -> Alcotest.failf "%s: unexpected error %s" name e

(* ---- satellite 1: the cache key is the semantic identity ---- *)

(* Alias renaming never changes the key: the canonical form is
   alias-invariant, and the fingerprint is injective on it. *)
let test_key_alias_invariant () =
  let catalog, _ = make_session () in
  List.iter
    (fun q ->
      let c = Cqnf.of_query ~catalog q in
      let c' = Cqnf.of_query ~catalog (Query_gen.rename_aliases q) in
      check Alcotest.bool (q.Query.name ^ " equal forms") true (Cqnf.equal c c');
      check Alcotest.string (q.Query.name ^ " same fingerprint")
        (Cqnf.fingerprint c) (Cqnf.fingerprint c'))
    (Job.all catalog)

(* Both directions, on the whole JOB workload and on random queries:
   fingerprints collide exactly when the canonical forms are equal. *)
let test_key_injective () =
  let catalog, _ = make_session () in
  let forms =
    List.map
      (fun q -> (q.Query.name, Cqnf.of_query ~catalog q))
      (Job.all catalog)
  in
  List.iter
    (fun (n1, c1) ->
      List.iter
        (fun (n2, c2) ->
          let fp_eq = String.equal (Cqnf.fingerprint c1) (Cqnf.fingerprint c2) in
          check Alcotest.bool
            (Printf.sprintf "%s vs %s: fingerprint eq iff form eq" n1 n2)
            (Cqnf.equal c1 c2) fp_eq)
        forms)
    forms;
  (* Random conjunctive queries: same property, fresh structures. *)
  let gen = Query_gen.create ~catalog in
  let prng = Prng.create 7 in
  let qs =
    List.init 40 (fun i -> Query_gen.gen gen prng ~name:(Printf.sprintf "g%d" i))
  in
  let forms = List.map (fun q -> Cqnf.of_query ~catalog q) qs in
  List.iteri
    (fun i c1 ->
      List.iteri
        (fun j c2 ->
          if i < j then
            check Alcotest.bool
              (Printf.sprintf "gen %d vs %d" i j)
              (Cqnf.equal c1 c2)
              (String.equal (Cqnf.fingerprint c1) (Cqnf.fingerprint c2)))
        forms)
    forms

(* A cache hit must be observationally identical to a cold execution:
   same aggregates, same feeding row count — for the original query and
   for an alias-renamed variant served from the same entry. *)
let test_hit_matches_cold () =
  let catalog, service = make_service () in
  let _, oracle_session = make_session () in
  let queries = [ "1a"; "2a"; "3b"; "4a" ] in
  List.iter
    (fun name ->
      let q = Job.find catalog name in
      let cold = cold_run oracle_session q in
      let miss = ok_response name (Service.query_bound service q) in
      check Alcotest.bool (name ^ " first is a miss") true
        (miss.Service.r_cached = Service.Miss);
      let hit = ok_response name (Service.query_bound service q) in
      check Alcotest.bool (name ^ " second is a hit") true
        (hit.Service.r_cached = Service.Hit);
      let variant =
        ok_response name
          (Service.query_bound service (Query_gen.rename_aliases q))
      in
      check Alcotest.bool (name ^ " variant is a hit") true
        (variant.Service.r_cached = Service.Hit);
      List.iter
        (fun (r : Service.response) ->
          check (Alcotest.list values) (name ^ " aggregates") cold.Rdb_exec.Executor.aggs
            r.Service.r_aggs;
          check Alcotest.int (name ^ " rows") cold.Rdb_exec.Executor.out_rows
            r.Service.r_rows)
        [ miss; hit; variant ];
      check (Alcotest.float 1e-9) (name ^ " hit skips planning") 0.0
        hit.Service.r_plan_ms)
    queries;
  Service.shutdown service

(* Hits must not touch the optimizer: plan.dp_pairs and plan.built stay
   flat across a warmed workload replay. *)
let test_hits_skip_dpccp () =
  let catalog, service = make_service () in
  let qs = List.filteri (fun i _ -> i < 12) (Job.all catalog) in
  List.iter (fun q -> ignore (Service.query_bound service q)) qs;
  let before = Metrics.snapshot () in
  List.iter
    (fun q ->
      let r = ok_response q.Query.name (Service.query_bound service q) in
      check Alcotest.bool (q.Query.name ^ " hit") true
        (r.Service.r_cached = Service.Hit))
    qs;
  let after = Metrics.snapshot () in
  check Alcotest.int "dp_pairs flat" 0 (delta before after "plan.dp_pairs");
  check Alcotest.int "no plans built" 0 (delta before after "plan.built");
  check Alcotest.int "all hits" (List.length qs) (delta before after "cache.hits");
  check Alcotest.int "no misses" 0 (delta before after "cache.misses");
  Service.shutdown service

(* Parse and bind failures produce Error responses and count neither a
   hit nor a miss. *)
let test_errors_counted_apart () =
  let _, service = make_service () in
  let before = Metrics.snapshot () in
  (match Service.query service "not even sql" with
   | Ok _ -> Alcotest.fail "parse failure expected"
   | Error _ -> ());
  (match Service.query service "SELECT COUNT(*) FROM no_such_table x;" with
   | Ok _ -> Alcotest.fail "bind failure expected"
   | Error _ -> ());
  let after = Metrics.snapshot () in
  check Alcotest.int "two errors" 2 (delta before after "serve.errors");
  check Alcotest.int "no hits" 0 (delta before after "cache.hits");
  check Alcotest.int "no misses" 0 (delta before after "cache.misses");
  Service.shutdown service

(* An equality between two columns of one relation gets an error: no join
   would apply it, so the answer would silently ignore it. *)
let test_same_relation_equality_errors () =
  let _, service = make_service () in
  let await = Rdb_util.Pool.await in
  List.iter
    (fun sql ->
      match await (Service.submit service sql) with
      | Ok _ -> Alcotest.failf "answered %s" sql
      | Error _ -> ())
    [
      "SELECT COUNT(*) FROM title AS t WHERE t.id = t.kind_id";
      "SELECT COUNT(*) FROM title AS t WHERE t.id = t.id";
    ];
  Service.shutdown service

(* The same equality on a bound query, which skips the binder: the
   service must refuse it rather than answer without the edge, alone or
   beside a join, on a joined column or not. *)
let test_bound_same_relation_equality_errors () =
  let catalog, service = make_service () in
  let col table name =
    Schema.find_exn (Table.schema (Catalog.table_exn catalog table)) name
  in
  let t c = { Query.rel = 0; col = col "title" c }
  and mc c = { Query.rel = 1; col = col "movie_companies" c } in
  let bound rels edges =
    {
      Query.name = "self";
      rels =
        Array.of_list
          (List.map (fun (alias, table) -> { Query.alias; table }) rels);
      preds = [];
      edges = List.map (fun (l, r) -> { Query.l; r }) edges;
      select = [ Query.Count_star ];
    }
  in
  let t_mc = [ ("t", "title"); ("mc", "movie_companies") ] in
  List.iteri
    (fun i q ->
      match Service.query_bound service q with
      | Ok _ -> Alcotest.failf "answered bound self-equality %d" i
      | Error _ -> ())
    [
      bound [ ("t", "title") ] [ (t "id", t "kind_id") ];
      bound t_mc [ (t "id", mc "movie_id"); (t "id", t "kind_id") ];
      bound t_mc
        [ (t "id", mc "movie_id"); (t "kind_id", t "production_year") ];
      bound t_mc [ (t "id", t "kind_id"); (mc "movie_id", t "id") ];
    ];
  Service.shutdown service

(* ---- LRU bound ---- *)

let test_lru_bound_and_eviction () =
  let config = { Service.default_config with cache_capacity = 4 } in
  let catalog, service = make_service ~config () in
  let qs = List.filteri (fun i _ -> i < 8) (Job.all catalog) in
  let before = Metrics.snapshot () in
  List.iter (fun q -> ignore (Service.query_bound service q)) qs;
  let after = Metrics.snapshot () in
  check Alcotest.int "size bounded" 4 (Plan_cache.size (Service.cache service));
  check Alcotest.int "evictions" 4 (delta before after "cache.evictions");
  (* The most recent query survived; the first was evicted. *)
  let last = List.nth qs 7 and first = List.nth qs 0 in
  let r = ok_response "last" (Service.query_bound service last) in
  check Alcotest.bool "most recent still cached" true
    (r.Service.r_cached = Service.Hit);
  let r = ok_response "first" (Service.query_bound service first) in
  check Alcotest.bool "oldest evicted" true (r.Service.r_cached = Service.Miss);
  Service.shutdown service

(* ---- satellite 2: concurrency stress with a serial differential oracle ---- *)

let test_stress_matches_serial_oracle () =
  let config = { Service.default_config with jobs = 4; cache_capacity = 64 } in
  let catalog, service = make_service ~config () in
  let workload =
    Array.of_list (List.filteri (fun i _ -> i < 16) (Job.all catalog))
  in
  (* Serial oracle, computed before any concurrency. *)
  let _, oracle_session = make_session () in
  let oracle =
    Array.map
      (fun q ->
        let r = cold_run oracle_session q in
        (r.Rdb_exec.Executor.aggs, r.Rdb_exec.Executor.out_rows))
      workload
  in
  let clients = 4 and per_client = 40 in
  let before = Metrics.snapshot () in
  let mismatches = Atomic.make 0 and errors = Atomic.make 0 in
  let client c =
    let prng = Prng.create (100 + c) in
    for _ = 1 to per_client do
      let i = Prng.int prng (Array.length workload) in
      let q = workload.(i) in
      let q = if Prng.bool prng then Query_gen.rename_aliases q else q in
      match Service.query_bound service q with
      | Error _ -> Atomic.incr errors
      | Ok r ->
        let want_aggs, want_rows = oracle.(i) in
        if
          not
            (List.equal Value.equal want_aggs r.Service.r_aggs
             && want_rows = r.Service.r_rows)
        then Atomic.incr mismatches
    done
  in
  let domains = List.init clients (fun c -> Domain.spawn (fun () -> client c)) in
  (* Concurrent stats refreshes while the clients hammer the cache: every
     refresh invalidates the whole cache and bumps the generation. *)
  for _ = 1 to 3 do
    Service.refresh_stats service ();
    Unix.sleepf 0.02
  done;
  List.iter Domain.join domains;
  let after = Metrics.snapshot () in
  check Alcotest.int "no errors" 0 (Atomic.get errors);
  check Alcotest.int "every response matches the serial oracle" 0
    (Atomic.get mismatches);
  let requests = clients * per_client in
  check Alcotest.int "hits + misses = requests" requests
    (delta before after "cache.hits" + delta before after "cache.misses");
  check Alcotest.int "requests counted" requests
    (delta before after "serve.requests");
  check Alcotest.bool "cache stayed bounded" true
    (Plan_cache.size (Service.cache service) <= 64);
  (* No torn entry: every cached canonical query re-normalizes to the very
     key it is stored under, and its epoch names exactly its tables. *)
  List.iter
    (fun (key, canonical, _plan, epoch, _hits, _cert) ->
      let c = Cqnf.of_query ~catalog canonical in
      check Alcotest.string "entry key is its own fingerprint" key
        (Cqnf.fingerprint c);
      let tables =
        List.sort_uniq compare
          (Array.to_list
             (Array.map (fun (r : Query.rel) -> r.Query.table)
                canonical.Query.rels))
      in
      check (Alcotest.list Alcotest.string) "epoch covers the entry's tables"
        tables (List.map fst epoch))
    (Plan_cache.entries (Service.cache service));
  Service.shutdown service

(* ---- satellite 3: a failing request cannot wedge the service ---- *)

let test_failing_request_keeps_serving () =
  let config = { Service.default_config with jobs = 2 } in
  let catalog, service = make_service ~scale:0.02 ~config () in
  let heavy = Job.find catalog "16b" in
  (* An absurd deadline kills the request mid-execution inside a worker
     domain; the failure must come back as Error, and the pool must keep
     answering afterwards. *)
  (match Service.query_bound service ~deadline_ms:0.000001 heavy with
   | Ok _ -> Alcotest.fail "deadline should have killed the request"
   | Error _ -> ());
  let q = Job.find catalog "1a" in
  let r = ok_response "after failure" (Service.query_bound service q) in
  check Alcotest.bool "still serving" true (r.Service.r_rows >= 0);
  (* And a burst of failures interleaved with successes. *)
  let futures =
    List.init 12 (fun i ->
        if i mod 2 = 0 then Service.submit_bound service ~deadline_ms:0.000001 heavy
        else Service.submit_bound service q)
  in
  let failures, successes =
    List.partition Result.is_error (List.map Rdb_util.Pool.await futures)
  in
  check Alcotest.int "all deadline requests failed" 6 (List.length failures);
  check Alcotest.int "all normal requests survived" 6 (List.length successes);
  Service.shutdown service;
  Service.shutdown service

(* ---- satellite 4: invalidation and revalidation ---- *)

let test_invalidation_exactly_once () =
  let catalog, service = make_service () in
  let q = Job.find catalog "1a" in
  ignore (Service.query_bound service q);
  Service.touch_table service "movie_keyword";
  let before = Metrics.snapshot () in
  let r = ok_response "stale" (Service.query_bound service q) in
  check Alcotest.bool "stale entry replanned" true
    (r.Service.r_cached = Service.Miss);
  let after = Metrics.snapshot () in
  check Alcotest.int "exactly one invalidation" 1
    (delta before after "cache.invalidations");
  check Alcotest.int "counted as a miss" 1 (delta before after "cache.misses");
  (* The replacement entry is fresh: the same query now hits, with no
     further invalidation. *)
  let before = Metrics.snapshot () in
  let r = ok_response "replacement" (Service.query_bound service q) in
  check Alcotest.bool "replacement hits" true (r.Service.r_cached = Service.Hit);
  let after = Metrics.snapshot () in
  check Alcotest.int "no second invalidation" 0
    (delta before after "cache.invalidations");
  (* Touching a table the query never reads leaves the entry fresh. *)
  Service.touch_table service "aka_name";
  let r = ok_response "unrelated" (Service.query_bound service q) in
  check Alcotest.bool "unrelated table does not invalidate" true
    (r.Service.r_cached = Service.Hit);
  Service.shutdown service

(* When the statistics move materially, the replacement plan may differ
   from the invalidated one — and must differ for at least one workload
   query when the histogram resolution collapses from 64 buckets to 2. *)
let test_invalidated_plan_can_change () =
  let config = { Service.default_config with cache_capacity = 128 } in
  let catalog, service = make_service ~scale:0.02 ~config () in
  let qs = List.filteri (fun i _ -> i < 20) (Job.all catalog) in
  let cache = Service.cache service in
  let shapes_before =
    List.filter_map
      (fun q ->
        ignore (Service.query_bound service q);
        let c = Cqnf.of_query ~catalog q in
        let key = Cqnf.fingerprint c in
        Option.map
          (fun plan ->
            let canonical = Cqnf.to_query ~name:q.Query.name c in
            (q, key, Plan.shape canonical plan))
          (Plan_cache.plan_of cache ~key))
      qs
  in
  check Alcotest.bool "cached some plans" true (List.length shapes_before >= 10);
  (* Collapse every histogram to 2 buckets, drop the MCVs: materially
     different estimates, identical data (so results stay correct). *)
  Service.refresh_stats service ~buckets:2 ~mcv_slots:0 ();
  let changed = ref 0 in
  List.iter
    (fun (q, key, shape) ->
      let r = ok_response q.Query.name (Service.query_bound service q) in
      check Alcotest.bool (q.Query.name ^ " invalidated") true
        (r.Service.r_cached = Service.Miss);
      match Plan_cache.plan_of cache ~key with
      | None -> ()
      | Some plan ->
        let canonical =
          Cqnf.to_query ~name:q.Query.name (Cqnf.of_query ~catalog q)
        in
        if not (String.equal shape (Plan.shape canonical plan)) then incr changed)
    shapes_before;
  check Alcotest.bool "some replacement plan changed shape" true (!changed > 0);
  Service.shutdown service

(* The revalidation path: staleness without material movement keeps the
   cached plan when the verifier's sound bounds cannot refute it. *)
let test_revalidation_keeps_plan () =
  let config = { Service.default_config with revalidate = true } in
  let catalog, service = make_service ~config () in
  let q = Job.find catalog "1a" in
  ignore (Service.query_bound service q);
  Service.touch_table service "title";
  let before = Metrics.snapshot () in
  let r = ok_response "revalidated" (Service.query_bound service q) in
  check Alcotest.bool "kept the plan" true
    (r.Service.r_cached = Service.Revalidated);
  let after = Metrics.snapshot () in
  check Alcotest.int "one revalidation" 1
    (delta before after "cache.revalidations");
  check Alcotest.int "counted as a hit" 1 (delta before after "cache.hits");
  check Alcotest.int "no invalidation" 0
    (delta before after "cache.invalidations");
  (* And the revalidated entry is fresh again: the next lookup is a plain
     hit, no second revalidation. *)
  let before = Metrics.snapshot () in
  let r = ok_response "then hits" (Service.query_bound service q) in
  check Alcotest.bool "plain hit" true (r.Service.r_cached = Service.Hit);
  let after = Metrics.snapshot () in
  check Alcotest.int "no second revalidation" 0
    (delta before after "cache.revalidations");
  Service.shutdown service

(* ---- re-optimization write-back ---- *)

let test_reopt_write_back () =
  let config =
    { Service.default_config with reopt = Some 2.0; cache_capacity = 128 }
  in
  let catalog, service = make_service ~scale:0.02 ~config () in
  let before = Metrics.snapshot () in
  let stepped = ref 0 in
  List.iter
    (fun q ->
      match Service.query_bound service q with
      | Ok r -> if r.Service.r_reopt_steps > 0 then incr stepped
      | Error e -> Alcotest.failf "%s: %s" q.Query.name e)
    (List.filteri (fun i _ -> i < 15) (Job.all catalog));
  let after = Metrics.snapshot () in
  check Alcotest.bool "some query re-optimized" true (!stepped > 0);
  check Alcotest.bool "improved plans written back" true
    (delta before after "cache.writebacks" > 0);
  Service.shutdown service

(* ---- admission control ---- *)

module Resource = Rdb_analysis.Resource

(* The certified peak of a query's default plan, probed on a twin session
   (same scale and seed as the service's own, hence same statistics and
   certificates). *)
let cert_hi session q =
  let prepared = Session.prepare session q in
  let plan, _, estimator = Session.plan prepared ~mode:Estimator.Default in
  Resource.mem_hi (Session.certify ~estimator prepared plan)

(* A budget strictly between a light query's certified peak and a heavy
   one's: the light query must serve, the heavy one must be rejected —
   and rejected again from the cached certificate on the hit path — while
   the service keeps answering. *)
let test_admission_rejects_over_budget () =
  let catalog, twin = make_session ~scale:0.02 () in
  let light = Job.find catalog "1a" in
  let heavy = Job.find catalog "16b" in
  let light_hi = cert_hi twin light and heavy_hi = cert_hi twin heavy in
  check Alcotest.bool "heavy certifies above light" true (heavy_hi > light_hi);
  let budget = (light_hi +. heavy_hi) /. 2.0 in
  let config = { Service.default_config with mem_budget = Some budget } in
  let _, service = make_service ~scale:0.02 ~config () in
  let before = Metrics.snapshot () in
  (match Service.query_bound service light with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "light query rejected: %s" e);
  (match Service.query_bound service heavy with
   | Ok _ -> Alcotest.fail "over-budget query served"
   | Error msg ->
     check Alcotest.bool "error names the budget" true
       (String.length msg >= 11 && String.sub msg 0 11 = "over-budget"));
  (* Again: the plan and certificate are cached now, so the second
     rejection must come from the hit path. *)
  let hits_before = Metrics.snapshot () in
  (match Service.query_bound service heavy with
   | Ok _ -> Alcotest.fail "over-budget query served on hit"
   | Error _ -> ());
  let after = Metrics.snapshot () in
  check Alcotest.int "rejected hit counted as cache hit" 1
    (delta hits_before after "cache.hits");
  check Alcotest.int "two rejections" 2 (delta before after "serve.rejected");
  check Alcotest.bool "light query admitted" true
    (delta before after "serve.admitted" >= 1);
  (* The rest of the workload still serves. *)
  let r = ok_response "after rejections" (Service.query_bound service light) in
  check Alcotest.bool "still serving" true (r.Service.r_rows >= 0);
  let json = Rdb_obs.Json.to_string (Service.resources_json service) in
  check Alcotest.bool "resources report is strict JSON" true
    (Rdb_obs.Json.is_valid json);
  Service.shutdown service

let test_admission_downgrades () =
  let catalog, twin = make_session ~scale:0.02 () in
  let light = Job.find catalog "1a" in
  let heavy = Job.find catalog "16b" in
  let light_hi = cert_hi twin light and heavy_hi = cert_hi twin heavy in
  let budget = (light_hi +. heavy_hi) /. 2.0 in
  let config =
    { Service.default_config with mem_budget = Some budget; downgrade = true }
  in
  let _, service = make_service ~scale:0.02 ~config () in
  let before = Metrics.snapshot () in
  let r = ok_response "downgraded" (Service.query_bound service heavy) in
  let after = Metrics.snapshot () in
  check Alcotest.int "downgrade counted" 1
    (delta before after "serve.downgraded");
  check Alcotest.int "not rejected" 0 (delta before after "serve.rejected");
  (* The downgraded run must agree with a cold plain execution. *)
  let cold = cold_run twin heavy in
  check (Alcotest.list values) "downgraded aggregates match cold run"
    cold.Rdb_exec.Executor.aggs r.Service.r_aggs;
  Service.shutdown service

(* A downgraded request runs the re-opt loop under the configured
   deadline, on the miss and again on the hit that the cached plan and
   certificate serve. *)
let test_downgraded_hit_keeps_deadline () =
  let config =
    {
      Service.default_config with
      mem_budget = Some 1.0;
      downgrade = true;
      deadline_ms = Some 0.000001;
    }
  in
  let catalog, service = make_service ~scale:0.02 ~config () in
  (* The executor first checks its deadline after 1,024 work units; 3a's
     re-optimized runs get that far, where many queries' do not. *)
  let q = Job.find catalog "3a" in
  List.iter
    (fun label ->
      let before = Metrics.snapshot () in
      (match Service.query_bound service q with
       | Ok _ -> Alcotest.failf "%s met an impossible deadline" label
       | Error _ -> ());
      let after = Metrics.snapshot () in
      check Alcotest.int (label ^ " downgraded") 1
        (delta before after "serve.downgraded");
      check Alcotest.bool (label ^ " hit the deadline") true
        (delta before after "exec.deadline_aborts" >= 1))
    [ "miss"; "hit" ];
  Service.shutdown service

(* The service never writes to the session's feedback store: a hit runs
   the cached plan and leaves the store as it found it. *)
let test_hit_writes_no_feedback () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~seed:42 ~scale:0.01 () in
  let feedback = Rdb_core.Feedback.create () in
  let session = Session.create ~feedback catalog in
  Session.analyze session;
  let service = Service.create session in
  let q = Job.find catalog "1a" in
  ignore (ok_response "miss" (Service.query_bound service q));
  Rdb_core.Feedback.clear feedback;
  let r = ok_response "hit" (Service.query_bound service q) in
  check Alcotest.bool "served from the cache" true
    (r.Service.r_cached = Service.Hit);
  check Alcotest.int "feedback store unchanged" 0
    (Rdb_core.Feedback.size feedback);
  Service.shutdown service

(* A budgeted re-optimizing miss certifies and caches its Default plan
   before admission, as a downgraded miss does, so a run the deadline
   aborts still leaves that plan cached. *)
let test_aborted_reopt_miss_keeps_plan () =
  let config =
    {
      Service.default_config with
      reopt = Some 2.0;
      mem_budget = Some 1e12;
      deadline_ms = Some 0.000001;
    }
  in
  let catalog, service = make_service ~scale:0.02 ~config () in
  let _, twin = make_session ~scale:0.02 () in
  let q = Job.find catalog "3a" in
  (match Service.query_bound service q with
   | Ok _ -> Alcotest.fail "the deadline should have aborted the run"
   | Error _ -> ());
  let cqnf = Cqnf.of_query ~catalog q in
  let cached =
    Plan_cache.plan_of (Service.cache service) ~key:(Cqnf.fingerprint cqnf)
  in
  Service.shutdown service;
  let canonical = Cqnf.to_query ~name:q.Query.name cqnf in
  let default_plan =
    let prepared = Session.prepare twin canonical in
    let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
    plan
  in
  match cached with
  | None -> Alcotest.fail "aborted miss left nothing cached"
  | Some plan ->
    check Alcotest.string "the certified Default plan"
      (Plan.shape canonical default_plan) (Plan.shape canonical plan)

(* ---- admission paths ----

   Every way a request reaches its plan (a miss, a hit, a revalidated
   hit), crossed with every admission outcome (no budget, admit, reject,
   downgrade), with and without re-optimization. One row per request: the
   response's label (or [rejected]) and re-opt step count, the admission
   and cache counters it moved, and whether the cache then holds the
   query's Default plan, another plan, or nothing. *)

let serve_counters =
  [ "serve.admitted"; "serve.rejected"; "serve.downgraded" ]

let cache_counters =
  [ "cache.hits"; "cache.misses"; "cache.insertions"; "cache.writebacks" ]

let admission_path_rows ~reopt ~budget =
  let catalog, twin = make_session ~scale:0.02 () in
  let q = Job.find catalog "2a" in
  let cqnf = Cqnf.of_query ~catalog q in
  let key = Cqnf.fingerprint cqnf in
  let canonical = Cqnf.to_query ~name:q.Query.name cqnf in
  let default_shape =
    let prepared = Session.prepare twin canonical in
    let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
    Plan.shape canonical plan
  in
  let mem_budget, downgrade =
    match budget with
    | `None -> (None, false)
    | `Admit -> (Some 1e12, false)
    | `Reject -> (Some 1.0, false)
    | `Downgrade -> (Some 1.0, true)
  in
  let config =
    { Service.default_config with reopt; mem_budget; downgrade;
      revalidate = true }
  in
  let _, service = make_service ~scale:0.02 ~config () in
  let row () =
    let before = Metrics.snapshot () in
    let outcome, steps =
      match Service.query_bound service q with
      | Ok r ->
        (Service.cached_name r.Service.r_cached, r.Service.r_reopt_steps)
      | Error _ -> ("rejected", 0)
    in
    let after = Metrics.snapshot () in
    let holds =
      match Plan_cache.plan_of (Service.cache service) ~key with
      | None -> "none"
      | Some plan when String.equal (Plan.shape canonical plan) default_shape ->
        "default"
      | Some _ -> "replanned"
    in
    let deltas names =
      String.concat "/"
        (List.map (fun name -> string_of_int (delta before after name)) names)
    in
    Printf.sprintf "%s steps=%d serve=%s cache=%s %s" outcome steps
      (deltas serve_counters) (deltas cache_counters) holds
  in
  let miss = row () in
  let hit = row () in
  Service.touch_table service "title";
  let revalidated = row () in
  Service.shutdown service;
  [ miss; hit; revalidated ]

(* Each row: the label, the re-opt steps, the deltas of [serve_counters]
   (admitted/rejected/downgraded) and of [cache_counters]
   (hits/misses/insertions/write-backs), and what the cache holds. *)
let test_admission_paths () =
  List.iter
    (fun (reopt, budget, name, expected) ->
      check (Alcotest.list Alcotest.string) name expected
        (admission_path_rows ~reopt ~budget))
    [
      ( None, `None, "no budget",
        [
          "miss steps=0 serve=0/0/0 cache=0/1/1/0 default";
          "hit steps=0 serve=0/0/0 cache=1/0/0/0 default";
          "revalidated steps=0 serve=0/0/0 cache=1/0/0/0 default";
        ] );
      ( None, `Admit, "admit",
        [
          "miss steps=0 serve=1/0/0 cache=0/1/1/0 default";
          "hit steps=0 serve=1/0/0 cache=1/0/0/0 default";
          "revalidated steps=0 serve=1/0/0 cache=1/0/0/0 default";
        ] );
      ( None, `Reject, "reject",
        [
          "rejected steps=0 serve=0/1/0 cache=0/1/1/0 default";
          "rejected steps=0 serve=0/1/0 cache=1/0/0/0 default";
          "rejected steps=0 serve=0/1/0 cache=1/0/0/0 default";
        ] );
      ( None, `Downgrade, "downgrade",
        [
          "miss steps=2 serve=0/0/1 cache=0/1/1/1 replanned";
          "hit steps=2 serve=0/0/1 cache=1/0/0/1 replanned";
          "revalidated steps=2 serve=0/0/1 cache=1/0/0/1 replanned";
        ] );
      ( Some 2.0, `None, "reopt, no budget",
        [
          "miss steps=2 serve=0/0/0 cache=0/1/1/1 replanned";
          "hit steps=0 serve=0/0/0 cache=1/0/0/0 replanned";
          "revalidated steps=0 serve=0/0/0 cache=1/0/0/0 replanned";
        ] );
      ( Some 2.0, `Admit, "reopt, admit",
        [
          "miss steps=2 serve=1/0/0 cache=0/1/1/1 replanned";
          "hit steps=0 serve=1/0/0 cache=1/0/0/0 replanned";
          "revalidated steps=0 serve=1/0/0 cache=1/0/0/0 replanned";
        ] );
      ( Some 2.0, `Reject, "reopt, reject",
        [
          "rejected steps=0 serve=0/1/0 cache=0/1/1/0 default";
          "rejected steps=0 serve=0/1/0 cache=1/0/0/0 default";
          "rejected steps=0 serve=0/1/0 cache=1/0/0/0 default";
        ] );
      ( Some 2.0, `Downgrade, "reopt, downgrade",
        [
          "miss steps=2 serve=0/0/1 cache=0/1/1/1 replanned";
          "hit steps=2 serve=0/0/1 cache=1/0/0/1 replanned";
          "revalidated steps=2 serve=0/0/1 cache=1/0/0/1 replanned";
        ] );
    ]

let () =
  Alcotest.run "rdb_server"
    [
      ( "cache-key",
        [
          Alcotest.test_case "alias renaming preserves the key" `Quick
            test_key_alias_invariant;
          Alcotest.test_case "fingerprint injective on canonical forms" `Slow
            test_key_injective;
        ] );
      ( "service",
        [
          Alcotest.test_case "hit matches cold execution" `Quick
            test_hit_matches_cold;
          Alcotest.test_case "hits skip DPccp" `Quick test_hits_skip_dpccp;
          Alcotest.test_case "errors counted apart" `Quick
            test_errors_counted_apart;
          Alcotest.test_case "same-relation equality errors" `Quick
            test_same_relation_equality_errors;
          Alcotest.test_case "bound same-relation equality errors" `Quick
            test_bound_same_relation_equality_errors;
          Alcotest.test_case "LRU bound and eviction" `Quick
            test_lru_bound_and_eviction;
          Alcotest.test_case "reopt write-back" `Slow test_reopt_write_back;
        ] );
      ( "stress",
        [
          Alcotest.test_case "concurrent clients match serial oracle" `Slow
            test_stress_matches_serial_oracle;
          Alcotest.test_case "failing request keeps serving" `Quick
            test_failing_request_keeps_serving;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "invalidation exactly once" `Quick
            test_invalidation_exactly_once;
          Alcotest.test_case "material stats change replans differently" `Slow
            test_invalidated_plan_can_change;
          Alcotest.test_case "revalidation keeps the plan" `Quick
            test_revalidation_keeps_plan;
        ] );
      ( "admission",
        [
          Alcotest.test_case "over-budget rejected, cache-hit path included"
            `Quick test_admission_rejects_over_budget;
          Alcotest.test_case "downgrade runs the re-opt loop" `Quick
            test_admission_downgrades;
          Alcotest.test_case "admission paths" `Quick test_admission_paths;
          Alcotest.test_case "downgraded hit keeps the deadline" `Quick
            test_downgraded_hit_keeps_deadline;
          Alcotest.test_case "hit writes no feedback" `Quick
            test_hit_writes_no_feedback;
          Alcotest.test_case "aborted re-opt miss keeps its plan" `Quick
            test_aborted_reopt_miss_keeps_plan;
        ] );
    ]
