(** Union-find over the integers [0 .. n-1], with path compression. A
    class's root is its smallest member, so the partition alone fixes
    every root. *)

type t

val create : int -> t
(** [n] singleton classes. *)

val find : t -> int -> int
(** The root of the element's class: its smallest member. *)

val union : t -> int -> int -> bool
(** Merge the two elements' classes; [false] when they were already one
    class. *)
