(** The true-cardinality oracle: for any connected set of relations [S] in a
    query, the exact number of rows produced by joining the members of [S]
    with all their base predicates applied.

    This is what the paper extracts from [EXPLAIN ANALYZE] (for the
    re-optimization trigger) and what it injects into the optimizer for the
    perfect-(n) experiments.

    When the query's join-attribute classes form a tree (every JOB query),
    cardinalities are counted by sum-product message passing: a message
    maps a join-key value to the number of consistent sub-join tuples, and
    is built by one pass over a hub relation's filtered rows that reads
    each join key from an int array gathered once per (relation, column)
    and probes flat {!Msg_map}s, allocating nothing per row. Otherwise
    the one sub-join builder ({!sub_join}, also {!Join_sample}'s engine)
    materializes sub-joins bottom-up, projected onto their "boundary" join
    columns only: each relation's rows come from its filtered scan, and
    each extension probes a hash index over the new relation's key array.
    Cardinalities are cached permanently; messages, key arrays and key
    indexes only until {!ensure_up_to} releases them, and materialized
    sub-joins of more than one relation only until the count they serve
    is taken. *)

module Relset = Rdb_util.Relset
module Query := Rdb_query.Query

(** The tree engine's messages: an open-addressing int -> float map over
    an [int array] of keys and a [Float.Array.t] of weights, kept at most
    half full and doubled as it grows. {!Column.null_int} marks an empty
    slot and can be neither a key nor found. Exposed for tests. *)
module Msg_map : sig
  type t

  val create : int -> t
  (** An empty map with room for the given number of keys. *)

  val length : t -> int
  (** Number of keys. *)

  val add : t -> int -> float -> unit
  (** [add m k w] binds [k] to [w +. w'] when it is bound to [w'], else to
      [w +. 0.0]. Raises [Invalid_argument] on {!Column.null_int}. *)

  val set : t -> int -> float -> unit
  (** [set m k w] binds [k] to [w]. Raises [Invalid_argument] on
      {!Column.null_int}. *)

  val slot : t -> int -> int
  (** The slot holding a key, or [-1] when it is absent. A slot is valid
      until the next [add] or [set] of a new key. *)

  val value : t -> int -> float
  (** The weight in a slot returned by {!slot}. *)

  val iter : (int -> float -> unit) -> t -> unit
  (** Every binding, in slot order. *)
end

type t

val create : ?carry:t * int array -> Catalog.t -> Query.t -> t
(** [carry] is [(prev, same_as)]: relation [i] of the query is relation
    [same_as.(i)] of [prev]'s query, over the same table with the same
    predicates, or [same_as.(i) < 0]. Whatever [prev] has already
    computed for such a relation, its filtered row ids and its join-key
    arrays, is shared rather than computed again. A re-optimization step
    keeps every relation outside the materialized set in just this way. *)

val query : t -> Query.t

val base_rows : t -> int -> int
(** Filtered cardinality of a single relation (its predicates applied). *)

val filtered_rowids : t -> int -> int array
(** Row ids of a relation surviving its predicates. Do not mutate. *)

val true_card : t -> Relset.t -> int
(** True cardinality of a connected, non-empty relation set. Computed on
    demand and cached; raises [Invalid_argument] on disconnected or empty
    sets. Only the sets asked for are cached: [Reopt.find_trigger] asks
    for the plan's joins only up to the first that trips, so a caller may
    not assume every join of a plan it searched is cached. *)

val ensure_up_to : t -> int -> unit
(** Precompute [true_card] for every connected subset of at most the given
    size, bottom-up, releasing materialized sub-joins level by level and
    the messages, key arrays and key indexes at the end. *)

type sub_join
(** A sub-join's tuples, projected onto its boundary join columns, and
    the factor by which a sample cap scaled them down. *)

val sub_join :
  t ->
  ?cap:int * Rdb_util.Prng.t ->
  (Relset.t, sub_join) Hashtbl.t ->
  Relset.t ->
  sub_join
(** [sub_join t ?cap memo s] builds the sub-join of the connected,
    non-empty set [s] (else [Invalid_argument]) by peeling
    [Join_graph.removable] relations down to single ones, reusing and
    filling [memo] along the way. Extensions emit in (parent tuple,
    ascending row id) order. With [cap = (size, prng)], every sub-join
    built keeps [size] of its tuples, drawn by [Prng.shuffle], when it has
    more. The fallback engine is this builder with no cap. *)

val scaled_rows : sub_join -> float
(** The sub-join's tuple count times its scale: its exact size when no
    cap dropped a tuple, else an estimate of it. *)

val uses_tree_engine : t -> bool
(** Whether the query's join-attribute class graph is a tree, enabling the
    factorized sum-product counting engine. Otherwise {!true_card} counts
    with {!sub_join}, uncapped: exact for any class graph, at the price of
    materializing every intermediate. No JOB query needs it; SQL with two
    equalities between one pair of relations does. *)
