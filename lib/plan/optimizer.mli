(** The dynamic-programming plan optimizer: bushy plans over DPccp's
    search space, no cartesian products, access-path selection (sequential
    vs. equality index scan) and join-algorithm selection (hash join,
    index nested loop, nested loop) — the architecture of the paper's
    PostgreSQL 10 baseline with foreign-key indexes added. *)

module Relset = Rdb_util.Relset
module Query := Rdb_query.Query
module Estimator := Rdb_card.Estimator

type stats = {
  pairs_considered : int;
  subsets_planned : int;
  plan_ms : float;  (** elapsed time of the DP on {!Rdb_obs.Clock}, the
                        paper's "planning time" *)
}

type lint_hook =
  catalog:Catalog.t -> estimator:Estimator.t -> Query.t -> Plan.t -> unit

val env_switch : string -> bool
(** The one rule for every [RDB_*] debug switch ([RDB_LINT], [RDB_VERIFY],
    [RDB_SENSITIVITY], [RDB_RESOURCE]): off when the variable is unset,
    empty, [0] or [false]; on for any other value. *)

val lint_hook : lint_hook option ref
(** Debug-mode invariant checker invoked on every plan {!plan} and
    {!plan_robust} return, when linting is enabled (the [?lint] argument,
    or the [RDB_LINT] {!env_switch} when the argument is absent).
    Installed by [Rdb_analysis.Debug.install] — a hook rather than a direct
    call so the plan layer does not depend on the analysis library that
    checks it. The hook is expected to raise on error-severity findings. *)

val verify_hook : lint_hook option ref
(** Like {!lint_hook}, but for the symbolic plan verifier: checks the
    chosen plan's estimates against sound cardinality bounds. Enabled by
    the [?verify] argument or the [RDB_VERIFY] switch; installed by
    [Rdb_verify.Debug.install]. Runs after {!lint_hook}. *)

val sensitivity_hook : lint_hook option ref
(** Third analysis layer: the plan-robustness analyzer
    ([Rdb_analysis.Sensitivity]) — cardinality intervals propagated through
    the cost model, a static prediction of the re-optimization trigger, and
    a consistency recomputation of every node's cost. Enabled by the
    [?sensitivity] argument or the [RDB_SENSITIVITY] switch (a numeric
    value is read as the Q-error envelope factor, e.g.
    [RDB_SENSITIVITY=32]); installed by [Rdb_analysis.Debug.install].
    Runs after {!verify_hook}. *)

val resource_hook : lint_hook option ref
(** Fifth analysis layer: the static resource certifier
    ([Rdb_analysis.Resource]) — sound peak-memory/work intervals and the
    re-plan transition analysis, run against every chosen plan. Enabled by
    the [?resource] argument or the [RDB_RESOURCE] switch; installed by
    [Rdb_analysis.Debug.install]. Runs after {!sensitivity_hook}. *)

val plan :
  ?lint:bool ->
  ?verify:bool ->
  ?sensitivity:bool ->
  ?resource:bool ->
  ?space:Search_space.t ->
  ?cost_params:Rdb_cost.Cost_model.params ->
  catalog:Catalog.t ->
  estimator:Estimator.t ->
  Query.t ->
  Plan.t * stats
(** Cheapest plan for the query under the estimator's cardinalities.
    [space] lets callers reuse the enumerated search space across estimator
    configurations. Raises [Invalid_argument] if the join graph is
    disconnected (cartesian products are not supported, as in the paper's
    workload); the message names the disconnected components by alias.
    [lint] (default: the [RDB_LINT] {!env_switch}) runs the installed
    {!lint_hook} on the chosen plan before returning it; [verify],
    [sensitivity] and [resource] likewise run the other hooks. *)

val plan_robust :
  ?lint:bool ->
  ?verify:bool ->
  ?sensitivity:bool ->
  ?resource:bool ->
  ?space:Search_space.t ->
  ?cost_params:Rdb_cost.Cost_model.params ->
  uncertainty:float ->
  catalog:Catalog.t ->
  estimator:Estimator.t ->
  Query.t ->
  Plan.t * stats
(** Rio-style proactive planning (paper reference [8]): every join
    estimate is treated as an interval — the point estimate scaled by
    [uncertainty^(k-1)] down and up for a k-relation subset, modelling
    error growth with join depth — and the chosen plan minimizes its
    *worst-case* cost across the pessimistic/point/optimistic scenarios.
    Trades peak performance for resistance to the under-estimation
    disasters re-optimization would otherwise have to repair. *)

val best_cost_of_sets :
  ?space:Search_space.t ->
  ?cost_params:Rdb_cost.Cost_model.params ->
  catalog:Catalog.t ->
  estimator:Estimator.t ->
  Query.t ->
  (Relset.t -> Plan.t option)
(** Expose the full DP table (best plan per connected subset); used by
    tests to check optimality against exhaustive enumeration and by the
    re-optimizer to plan sub-queries. *)
