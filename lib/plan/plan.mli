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

module type ARITH = sig
  type t
  val zero : t
  val add : t -> t -> t
  val mul : t -> t -> t
  val max : t -> t -> t
end

(** The one rule for what running a plan costs: each operator's work units
    and resident row-slots (one rowid or hash-table entry each). The
    executor charges the [Int] terms where it does the work, so a budget
    aborts at their running sum, and its peak is the [Int] recurrence over
    actual rows. [Rdb_analysis.Resource] evaluates the same terms at both
    ends of cardinality intervals; every term is a monotone sum, product or
    maximum, so the two ends bound it exactly. Charges are linear in their
    counts. *)
module Usage (N : ARITH) : sig
  (** Charges: a seq scan's table rows; every rowid an index returns
      ([lookup]); a hash join's or index nested loop's outer rows
      ([probe]); a hash join's inner rows and, per probe, its matches; a
      nested loop's inner rows, per outer row. A hash join's build table
      holds one entry per inner row; an intermediate, [rows * width]. *)

  val seq_scan : table_rows:N.t -> N.t
  val lookup : candidates:N.t -> N.t
  val probe : outer_rows:N.t -> N.t
  val hash_build : inner_rows:N.t -> N.t
  val hash_emit : matches:N.t -> N.t
  val nl_rescan : inner_rows:N.t -> N.t
  val hash_table : inner_rows:N.t -> N.t
  val slots : rows:N.t -> width:N.t -> N.t

  val join_work :
    join_algo -> outer_work:N.t -> inner_work:N.t -> outer_rows:N.t ->
    inner_rows:N.t -> out:N.t -> fanout:N.t -> N.t
  (** A join's subtree: its inputs, then its own charges; [out] rows are
      emitted. An index nested loop never runs its inner input: it probes
      the inner relation, whose lookups total [fanout]. *)

  val join_peak :
    join_algo -> outer_mem:N.t -> outer_slots:N.t -> inner_mem:N.t ->
    inner_slots:N.t -> inner_rows:N.t -> out_slots:N.t -> N.t
  (** From each input's own peak ([_mem]) and result ([_slots]): the outer
      subtree, its result beside the running inner subtree, then both
      results, the hash table and the output. An index nested loop is
      {!pipelined_peak}. *)

  val pipelined_peak : outer_mem:N.t -> outer_slots:N.t -> out_slots:N.t -> N.t
  (** Building [out_slots] beside a finished input: an index nested loop's
      output, or a result projected into a temp table. *)
end

val probed_rel : join -> int
(** The base relation an index nested loop probes: its inner scan's.
    Raises [Invalid_argument] when the inner is a join. *)

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
