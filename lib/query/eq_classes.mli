(** The column classes a query's equi-join edges make equal: the one place
    that decides which join columns stand for the same value. The
    re-optimization rewrite collapses each class inside the materialized
    set into one temp-table column (§V, Fig. 6); the estimator propagates
    equality constants through the classes; the oracle factorizes over
    them; the conjunctive normal form makes each class one variable. *)

type t

val make : Query.edge list -> t
(** The classes of the edges' endpoint columns. Members are numbered in
    order of first appearance ([l] before [r], edges in list order), and
    classes in order of their first member. *)

val n_classes : t -> int

val members : t -> (Query.colref * int) list
(** Every endpoint column, once, with its class id, in first-appearance
    order. *)

val class_of : t -> Query.colref -> int option
(** The column's class id in [0 .. n_classes - 1]; [None] for a column on
    no edge. *)

val repr : t -> Query.colref -> Query.colref
(** The smallest [(rel, col)] of the column's class; the column itself
    when it is on no edge. *)

val redundant : t -> int
(** Edges that merged no two classes: duplicated edges, self-edges and
    cycle-closing edges. *)
