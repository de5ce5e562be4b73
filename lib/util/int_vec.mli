(** Growable array of ints; the workhorse buffer for materialized row ids
    and projected join tuples. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> int -> unit
val get : t -> int -> int
val set : t -> int -> int -> unit
val clear : t -> unit

val to_array : t -> int array
(** A fresh, exactly-sized copy. *)
