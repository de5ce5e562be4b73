(** Scalar values. The engine is typed: a column holds either integers or
    strings. Join keys are always integers (surrogate ids), as in the
    IMDB/JOB schema. *)

type t =
  | Null
  | Int of int
  | Str of string

type ty = Ty_int | Ty_str

val ty_of : t -> ty option
(** [None] for [Null]. *)

val compare : t -> t -> int
(** Total order with [Null] lowest, integers before strings. *)

val equal : t -> t -> bool

val is_null : t -> bool

val to_string : t -> string
val ty_to_string : ty -> string
