(** Physical plan trees: scans with an access path, binary joins with an
    algorithm, each node carrying the optimizer's cardinality estimate and
    cost. *)

module Relset = Rdb_util.Relset
module Query := Rdb_query.Query

type scan_access =
  | Seq_scan
  | Index_scan of { col : int; key : int }
      (** Equality lookup [col = key] through a hash index; the relation's
          remaining predicates are applied as residual filters. *)

type join_algo =
  | Hash_join
      (** Build on the inner (right) input, probe with the outer. *)
  | Index_nl of { inner_col : int }
      (** For each outer row, probe the inner base relation's index on
          [inner_col]. The inner input must be a single base relation. *)
  | Nested_loop
      (** Materialized inner, scanned per outer row. *)

type t =
  | Scan of scan
  | Join of join

and scan = {
  scan_rel : int;
  access : scan_access;
  scan_est : float;
  scan_cost : float;
}

and join = {
  algo : join_algo;
  outer : t;
  inner : t;
  join_est : float;
  join_cost : float;
  join_edges : Query.edge list;
      (** Connecting equi-join conditions, oriented with [l] on the outer
          side. The first edge is the index key for [Index_nl]. *)
}

val rel_set : t -> Relset.t
(** Relations covered by the subtree. *)

val est_rows : t -> float
val cost : t -> float

val join_cost :
  Rdb_cost.Cost_model.params ->
  npreds:(int -> int) ->
  join_algo ->
  inner:t ->
  edges:Query.edge list ->
  outer_rows:float ->
  inner_rows:float ->
  out:float ->
  outer_cost:float ->
  inner_cost:float ->
  float
(** The one rule that prices a join node: the inputs' costs plus the
    algorithm's {!Rdb_cost.Cost_model} formula at the given row counts.
    Index nested loop drops [inner_cost] (it probes the inner base
    relation's index instead of running the subtree) and evaluates the
    inner's own predicates plus all edges but the first on each match;
    [npreds rel] is the number of predicates restricting relation [rel]
    ({!Query.pred_counts}). Monotone non-decreasing in every row and cost
    argument, so its values at the all-lower and all-upper corners of a
    box bound it over the box. The optimizer calls it once per scenario,
    the sensitivity analyzer at the point estimates and the corners, and
    the plan linter under all-zero parameters for the inputs' cost
    floor. *)

val joins_bottom_up : t -> join list
(** All join nodes, deepest-first (post-order); the order in which the
    re-optimizer looks for the "lowest" mis-estimated join. *)

val trigger_order : t -> (join * Relset.t) list
(** All join nodes with their relation sets, in the order the
    re-optimization trigger considers them: fewest relations first, then
    the deepest in the tree, then post-order position. The order is total
    (two joins of equal size and depth sit in disjoint subtrees), so the
    first tripping join in it is a deterministic choice. *)

val scans : t -> scan list

val n_joins : t -> int

val algo_name : join_algo -> string

val same_shape : t -> t -> bool
(** Structural equality of the physical plan choice — relations, access
    paths, join algorithms and tree shape — ignoring the recorded estimates
    and costs. The sensitivity analyzer uses this to decide whether a
    perturbed estimate changed the DP-optimal plan. *)

val shape : Query.t -> t -> string
(** Compact s-expression of the plan choice, e.g.
    [(HJ (INL t mk@c1) ci)] — the same equivalence as {!same_shape},
    rendered for reports. *)
