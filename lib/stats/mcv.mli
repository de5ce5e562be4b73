(** Most-common-value lists: the values PostgreSQL stores alongside
    histograms, with their frequency as a fraction of the table. *)

type t

val build : ?slots:int -> Value.t list -> t
(** Count the (non-NULL) input values and keep the [slots] most frequent
    (default 100). A value must occur at least twice to be kept. Ties in
    frequency are ordered by {!Value.compare}. *)

val of_counts : ?slots:int -> n:int -> (Value.t * int) list -> t
(** {!build} from [n] non-NULL values already counted: [counts] holds
    each value that occurs at least twice, once, with its count, in any
    order. Ascending value order is the fastest: an entry then never
    displaces a kept one of equal count. *)

val empty : t

val entries : t -> (Value.t * float) list
(** Most frequent first. *)

val frequency : t -> Value.t -> float option
(** Frequency of a value if it is in the list. *)

val total_fraction : t -> float
(** Combined fraction of the table covered by MCVs. *)

val count : t -> int
(** Number of entries. *)

val complete : t -> bool
(** True when the list was built with a free slot left, so it holds every
    value occurring at least twice. False for {!empty} and for a list cut
    off at its slot count, whatever that count was. *)
