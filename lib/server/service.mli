(** The concurrent query service: a long-running, in-process API over one
    database session, executing requests on a {!Rdb_util.Pool} of worker
    domains with a shared CQNF-keyed {!Plan_cache}.

    Every worker plans and executes against its own
    {!Rdb_core.Session.with_stats_of} clone (shared immutable tables and
    statistics values, private temp-table namespace), rebuilt whenever a
    stats refresh bumps the service generation. A cache hit replays the
    cached plan against the cached canonical query — no [prepare], no
    DPccp ([plan.dp_pairs] stays flat across hits, the property
    [test/test_server.ml] asserts; the ledger's [serve-hot] workload
    measures it, see [ledger/README.md]).

    Invalidation: cache entries carry the {!Catalog.mod_count} table
    modification counters they were planned against; {!refresh_stats}
    (re-ANALYZE) and {!touch_table} bump counters, and a subsequent lookup
    on a stale entry either drops it (default, counted as
    [cache.invalidations]) or — with [revalidate] — keeps it when the
    symbolic verifier's sound cardinality bounds under the new statistics
    cannot refute the plan (counted as [cache.revalidations]).

    Every request takes one path: it resolves to its canonical query and
    a certified plan (a hit, a revalidated hit, or a miss that prepares,
    plans with Default estimates, certifies and caches), is admitted, and
    runs either the plan as it is or the mid-query re-optimization loop.
    With [reopt] set, a miss runs the loop; without a memory budget it
    goes straight there and the loop does its own planning. When
    re-optimization replaced the plan, an improved plan for the canonical
    query — replanned with the first materialized sub-join's true
    cardinality pinned — is written back to the cache
    ([cache.writebacks]). Hits run the cached plan as it is.

    With [mem_budget] set, every certificate is held against the budget
    before execution: admitted requests count [serve.admitted],
    over-budget ones either fail with an [over-budget:] error
    ([serve.rejected]) or — with [downgrade] — run through the
    re-optimization loop instead ([serve.downgraded]). Certificates travel
    with the cached plan, so hits decide admission without planning.

    The service never reads or writes the session's feedback store; only
    {!Rdb_core.Reopt.run} records into it, as it does for any caller.

    Metrics (registry of {!Rdb_obs.Metrics}): [serve.requests],
    [serve.errors], [serve.stats_refreshes], the [serve.ms] /
    [serve.plan_ms] / [serve.exec_ms] distributions; with a memory budget,
    exactly one of [serve.admitted] / [serve.rejected] /
    [serve.downgraded] per request that reaches admission; and
    [cache.hits], [cache.misses], [cache.invalidations],
    [cache.revalidations], [cache.writebacks] ({!Plan_cache} adds
    [cache.insertions], [cache.evictions], [cache.key_collisions]). Every
    request that reaches the cache decision counts exactly one of
    [cache.hits] / [cache.misses] (a parse or bind failure counts
    neither), so on an error-free run
    [cache.hits + cache.misses = serve.requests] holds exactly — the
    stress test's consistency invariant. *)

module Query := Rdb_query.Query
module Session := Rdb_core.Session
module Pool := Rdb_util.Pool

type cached = Hit | Revalidated | Miss

val cached_name : cached -> string

type response = {
  r_aggs : Value.t list;   (** one value per aggregate in the SELECT list *)
  r_rows : int;            (** rows feeding the aggregates *)
  r_cached : cached;
  r_plan_ms : float;       (** 0 on a hit: planning skipped entirely *)
  r_exec_ms : float;
  r_reopt_steps : int;
}

type config = {
  jobs : int;              (** worker domains; 1 = inline, serialized *)
  cache_capacity : int;    (** LRU bound of the plan cache *)
  reopt : float option;    (** Q-error threshold enabling re-optimization *)
  revalidate : bool;       (** try bound-revalidation before invalidating *)
  work_budget : int option;
  deadline_ms : float option;
      (** every request's deadline unless {!submit} overrides it; it bounds
          each execution phase, the re-optimization loop's included *)
  mem_budget : float option;
      (** admission control: reject (or downgrade) any plan whose certified
          peak memory ({!Rdb_analysis.Resource.mem_hi}, row-slots) exceeds
          this — the certificate is a sound upper bound, so every admitted
          non-adaptive execution provably stays within budget *)
  downgrade : bool;
      (** with [mem_budget]: instead of rejecting an over-budget plan, run
          the query through the re-optimization loop (threshold [reopt],
          or 2.0 when re-optimization is off) — materializing sub-joins
          and re-planning from their true cardinalities rather than
          trusting the footprint of a plan built on estimates *)
}

val default_config : config
(** jobs 1, capacity 256, no re-optimization, invalidate (no revalidation),
    work budget 2e8, no deadline, no memory budget. *)

type t

val create : ?config:config -> Session.t -> t
(** Wrap an analyzed session. The session's catalog and statistics must not
    be mutated behind the service's back — go through {!refresh_stats} /
    {!touch_table}, which bump the generation every worker clone watches. *)

val submit : t -> ?deadline_ms:float -> string -> (response, string) result Pool.future
(** Parse, bind, and enqueue one SQL text. The future never carries an
    exception: parse, bind and execution failures come back as [Error] —
    a failing request must not wedge the caller. [deadline_ms] overrides
    the config's per-request deadline. Raises [Invalid_argument] after
    {!shutdown}. *)

val query : t -> ?deadline_ms:float -> string -> (response, string) result
(** [Pool.await] of {!submit}. *)

val submit_bound : t -> ?deadline_ms:float -> Query.t -> (response, string) result Pool.future
(** {!submit} for an already-bound query (tests). *)

val query_bound : t -> ?deadline_ms:float -> Query.t -> (response, string) result

val refresh_stats : t -> ?buckets:int -> ?mcv_slots:int -> unit -> unit
(** Re-ANALYZE every table (bumping its modification counter) and bump the
    service generation: every worker rebuilds its session clone on its
    next request, and every cached plan becomes stale. *)

val touch_table : t -> string -> unit
(** Bump one table's modification counter (and the generation) without
    changing statistics — staleness without material movement, the
    revalidation path's test case. *)

val cache : t -> Plan_cache.t
val jobs : t -> int
val config : t -> config
val generation : t -> int

val resources_json : t -> Rdb_obs.Json.t
(** The admission-control report behind the frontend's [\resources]
    command: the configured budget and downgrade knob, the
    [serve.admitted] / [serve.rejected] / [serve.downgraded] counters, and
    every cached entry's resource certificate
    ({!Rdb_analysis.Resource.to_json}; [null] for entries without one). *)

val shutdown : t -> unit
(** Reject new submissions, drain in-flight requests, join the workers.
    Idempotent and thread-safe (see {!Rdb_util.Pool.shutdown}). *)
