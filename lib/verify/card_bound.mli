(** Sound cardinality-bound propagation: [lo, hi] row-count intervals for
    every sub-join, derived only from facts the engine can prove —
    exact ANALYZE statistics (guarded by a row-count freshness check),
    declared unique keys (joining through one cannot multiply cardinality;
    equality on one matches at most one row) and declared NOT NULL foreign
    keys into unfiltered parents (which preserve lower bounds).

    Upper bounds use key absorption with exact MCV max frequencies:
    [ub(S) <= ub(S \ r) * dup(r)] minimized over every peeling choice,
    with disconnected remainders bounded by component products. Factors in
    multi-relation compositions are floored at one row, mirroring the
    estimator's own 1-row floor: the floor only raises the bound, so the
    true cardinality of any sub-join still provably lies inside the
    interval (the soundness tests check this against the brute-force
    oracle). *)

module Relset = Rdb_util.Relset
module Query := Rdb_query.Query
module Db_stats := Rdb_stats.Db_stats
module Plan := Rdb_plan.Plan
module Finding := Rdb_analysis.Finding

type t
(** Per-query context. [create] is O(1); the first interval builds each
    relation's scan bound, neighbour bitset and incident edges with their
    dup factors and foreign-key flags, and every interval is memoized per
    relation subset. Mutable and unsynchronized: use a context on one
    domain, and create a new one once the statistics change. *)

val create : catalog:Catalog.t -> stats:Db_stats.t -> Query.t -> t

val interval : t -> Relset.t -> float * float
(** [lo, hi] bounds on the rows of the sub-join over the set (its
    relations, their predicates, and every internal edge). Raises
    [Invalid_argument] on the empty set. *)

val clamp : t -> Relset.t -> float -> float
(** Clamp a point estimate into the interval — the "pessimistic" estimator
    mode. Sound bounds never move a true cardinality, only estimates. *)

val check_plan : t -> Plan.t -> Finding.t list
(** Compare every plan node's point estimate against the node's interval:
    [estimate-exceeds-bound] errors (the estimate is provably impossible),
    [estimate-below-bound] warnings. Tolerates the estimator's 1-row floor
    and half-a-row rounding slack. *)

val check_constraints : Catalog.t -> Finding.t list
(** Validate every declared unique / NOT NULL / foreign-key constraint
    against the actual table contents (full scans) — the bounds above are
    only as sound as these declarations. *)
