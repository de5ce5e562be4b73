(** Most-common-value lists: the values PostgreSQL stores alongside
    histograms, with their frequency as a fraction of the table. *)

type t

val build : ?slots:int -> Value.t list -> t
(** Count the (non-NULL) input values and keep the [slots] most frequent
    (default 100). A value must occur at least twice to be kept. Ties in
    frequency are ordered by {!Value.compare}. *)

val run_starts : ('a -> 'a -> bool) -> 'a array -> int array
(** [run_starts equal sorted]: the index of the first element of every
    run of equal elements, ascending. *)

val of_runs :
  ?slots:int -> n:int -> value:(int -> Value.t) -> int array -> t
(** {!build} from [n] non-NULL values already sorted ascending, given as
    their {!run_starts}; [value i] is the value at sorted index [i],
    called only for the kept entries. *)

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
