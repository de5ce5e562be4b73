(** Sets of relation indexes, represented as bitsets in a native [int].

    Queries in the Join Order Benchmark have at most 17 relations; we
    support up to 62. Relation subsets are the currency of the optimizer:
    dynamic-programming tables, cardinality estimates and the
    re-optimization trigger are all keyed by [Relset.t]. *)

type t = private int

val empty : t
val is_empty : t -> bool
val singleton : int -> t
val add : int -> t -> t
val remove : int -> t -> t
val mem : int -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val cardinal : t -> int
val subset : t -> t -> bool
(** [subset a b] is true when [a ⊆ b]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val min_elt : t -> int
(** Smallest member. Raises [Invalid_argument] on the empty set. *)

val of_list : int list -> t
val to_list : t -> int list
val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val full : int -> t
(** [full n] is [{0, .., n-1}]. *)

val below : int -> t
(** [below i] is [{0, .., i-1}]: the "forbidden" prefix used by the DPccp
    enumeration to avoid emitting a subgraph twice. *)

val iter_subsets : t -> (t -> unit) -> unit
(** Enumerate every non-empty subset of the given set, in an unspecified
    order. *)

val next_subset : t -> t -> t
(** [next_subset s sub] is the subset of [s] that {!iter_subsets} visits
    after [sub], or the empty set after the last: a loop over the subsets
    with no closure. *)
