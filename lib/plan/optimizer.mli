(** The dynamic-programming plan optimizer: bushy plans over DPccp's
    search space, no cartesian products, access-path selection (sequential
    vs. equality index scan) and join-algorithm selection (hash join,
    index nested loop, nested loop) — the architecture of the
    paper's PostgreSQL 10 baseline with foreign-key indexes added. *)

module Query := Rdb_query.Query
module Estimator := Rdb_card.Estimator

type stats = {
  pairs_considered : int;
  subsets_planned : int;
  plan_ms : float;  (** elapsed time of the DP on {!Rdb_obs.Clock}, the
                        paper's "planning time" *)
}

val plan :
  ?space:Search_space.t ->
  ?uncertainty:float ->
  catalog:Catalog.t ->
  estimator:Estimator.t ->
  Query.t ->
  Plan.t * stats
(** Cheapest plan for the query under the estimator's cardinalities.
    [space] lets callers reuse the enumerated search space across estimator
    configurations. Raises [Invalid_argument] if the join graph is
    disconnected (cartesian products are not supported, as in the paper's
    workload); the message names the disconnected components by alias.
    The inline invariant checks run one layer up, in
    [Rdb_core.Session.plan].

    [uncertainty] selects Rio-style proactive planning (paper reference
    [8]): every join estimate is treated as an interval — the point
    estimate scaled by [uncertainty^(k-1)] down and up for a k-relation
    subset, modelling error growth with join depth — and the chosen plan
    minimizes its *worst-case* cost across the optimistic, point and
    pessimistic scenarios. Every node still records its point estimate
    and its cost in the point scenario. Trades peak performance for
    resistance to the under-estimation disasters re-optimization would
    otherwise have to repair. *)
