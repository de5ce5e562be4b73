(** The query's join graph: relations as vertices, equi-join edges. Used by
    the optimizer (DPccp enumeration forbids cartesian products exactly as
    the paper's PostgreSQL baseline does), by the cardinality oracle (which
    materializes connected sub-joins) and by Table I (which counts the
    estimates an optimizer must make). *)

module Relset = Rdb_util.Relset

type t

val make : Query.t -> t

val n : t -> int

val neighbors : t -> Relset.t -> Relset.t
(** Vertices adjacent to (but outside) the set. *)

val is_connected : t -> Relset.t -> bool
(** The empty set is not connected; singletons are. *)

val components : t -> Relset.t -> Relset.t list
(** Connected components of the induced subgraph on the given set, ordered
    by smallest member. A connected set yields one component. *)

val removable : t -> Relset.t -> int
(** The largest-index relation whose removal keeps the (connected) set
    connected. This is the canonical decomposition both the estimator and
    the true-cardinality oracle peel subsets with, so that a perfect
    estimate for [S ∖ {r}] propagates into the estimate of [S] exactly as
    in the paper's perfect-(n) construction. Raises [Invalid_argument] on
    sets that are not connected or are empty. *)

val iter_csg_rec : t -> Relset.t -> Relset.t -> (Relset.t -> unit) -> unit
(** [iter_csg_rec g s x emit] grows the connected set [s] into every
    connected superset reachable without touching [x] and emits each
    exactly once (EnumerateCsgRec of DPccp), allocating no closure. *)

val connected_subsets : t -> Relset.t list
(** Every connected subset, each exactly once, ordered by cardinality
    (ties broken arbitrarily but deterministically). For JOB-like graphs
    this is the set of sub-joins an estimator may be asked about. *)

val count_by_size : t -> int array
(** [count_by_size g].(k) = number of connected subsets with k relations
    (index 0 unused). Feeds Table I. *)

val to_dot : Query.t -> string
(** GraphViz rendering of the join graph (Figures 3 and 4). *)
