(** A session bundles the database (catalog + statistics) and
    provides prepared per-query contexts that share the expensive artifacts
    — the true-cardinality oracle and the DPccp search space — across every
    estimator configuration the experiments sweep over. *)

module Relset = Rdb_util.Relset
module Query := Rdb_query.Query
module Db_stats := Rdb_stats.Db_stats
module Estimator := Rdb_card.Estimator
module Oracle := Rdb_card.Oracle
module Plan := Rdb_plan.Plan
module Optimizer := Rdb_plan.Optimizer
module Search_space := Rdb_plan.Search_space
module Executor := Rdb_exec.Executor

type t

val create : ?feedback:Feedback.t -> Catalog.t -> t
(** Wrap a populated catalog. Statistics start empty: call {!analyze}.
    [feedback], when given, makes every {!execute} record observed true
    cardinalities into the store (LEO-style learning); planning only
    consults it under {!feedback_mode}. *)

val with_stats_of : t -> t
(** A fresh session for another domain of the parallel runner: shallow
    copies of the parent's catalog and statistics (table, index and
    per-column statistic values are shared — all immutable once built)
    and a private temp-table counter. The clone
    skips re-running ANALYZE, and re-optimization temp tables it creates
    never touch the parent, so clones are safe to drive concurrently as
    long as the parent's base tables are not mutated underneath them. *)

val catalog : t -> Catalog.t
val stats : t -> Db_stats.t

val feedback : t -> Feedback.t option
(** The session's feedback store, shared with {!with_stats_of} clones. *)

val analyze : ?buckets:int -> ?mcv_slots:int -> t -> unit
(** ANALYZE every table (the paper's maximum statistics target). *)

val analyze_table : t -> string -> unit
(** ANALYZE one table; used for temp tables during re-optimization. *)

val fresh_temp_name : t -> string

val drop_temp : t -> string -> unit
(** Drop a temp table from the catalog and its statistics. *)

type prepared

val prepare : ?carry:Oracle.t * int array -> t -> Query.t -> prepared
(** Validates the query and builds its shared oracle and search space.
    Raises [Invalid_argument] when validation fails. [carry] is passed to
    {!Rdb_card.Oracle.create}: the new oracle shares what the given one
    already computed for the relations the map says are unchanged. *)

val query : prepared -> Query.t
val oracle : prepared -> Oracle.t
val space : prepared -> Search_space.t
val session : prepared -> t

val bounds : prepared -> Rdb_verify.Card_bound.t
(** The query's sound-bound context, created by {!prepare} and shared by
    pessimistic planning, {!certify}, gated {!feedback_mode} and EXPLAIN:
    its memo fills on first use and stays valid while the session's
    statistics for the query's tables do not change. Like the oracle, it
    is mutable and unsynchronized: a prepared query is confined to the
    domain that prepared it. *)

val plan :
  ?checks:Checks.check list ->
  ?pessimistic:bool ->
  ?uncertainty:float ->
  prepared ->
  mode:Estimator.mode ->
  Plan.t * Optimizer.stats * Estimator.t
(** Optimize under the given estimation mode, then run [checks] (default:
    {!Checks.env}, the [RDB_CHECKS] variable; an explicit list replaces
    it) on the chosen plan; error findings raise {!Checks.Check_failed}.
    [pessimistic] (default false) clamps every estimate to the verifier's
    sound interval before costing — changing only plan choice, never
    results. [uncertainty] selects Rio-style robust planning
    ({!Rdb_plan.Optimizer.plan}): minimize worst-case cost over an
    uncertainty interval that widens with join depth. *)

val certify :
  ?transitions:bool ->
  ?threshold:float ->
  ?estimator:Estimator.t ->
  prepared ->
  Plan.t ->
  Rdb_analysis.Resource.cert
(** Certify a plan's resource envelope ([Rdb_analysis.Resource.certify])
    with the verifier's sound cardinality intervals as bounds — certified
    hi-bounds dominate any non-adaptive execution's observed
    [Executor.result.peak_rows] and [work]. [transitions] (default false)
    additionally simulates the re-opt replan loop (thrashing and
    useless-materialization detection). [estimator] defaults to a fresh
    [Default]-mode estimator; pass the one that produced the plan so the
    transition simulation replans under the same estimation mode. *)

val execute :
  ?work_budget:int -> ?deadline_ms:float -> ?adaptive:bool -> ?learn:bool ->
  prepared -> Plan.t -> Executor.result
(** [learn] (default true) records the execution's observed cardinalities
    into the session's feedback store, when one is attached. [Reopt.run]
    passes [false] and instead re-keys observations against the original
    query — a rewritten query's relation indices point at temp tables,
    and learning them verbatim would mis-key the store. *)

val feedback_mode : ?gated:bool -> prepared -> Feedback.t -> Estimator.mode
(** An estimation mode that consults the feedback store before the
    default composition. [gated] (default false) validates the corrected
    plan with [Rdb_analysis.Sensitivity]: corrected subsets get point
    envelopes (their values are observed true cardinalities), all others
    the factor-32 error model, and the corrected plan is accepted only
    when no corner of the unconfirmed envelopes flips the DP choice —
    i.e. the plan's shape does not pivot on any estimate the store has
    not confirmed, the exact failure mode of the paper's
    corrections-can-hurt result (§IV-E). A rejected plan is retried with
    the corrections at or under the unconfirmed pivots dropped
    ([Feedback.gate]); if the re-validation also fails, the mode degrades
    to [Default] for this query. Gated mode pays up to two sensitivity
    analyses (with corner replans) at planning time. *)
