(** Physical column storage. Integer columns use [-min_int] as the NULL
    sentinel internally; accessors expose {!Value.t}. *)

type t =
  | Ints of int array
  | Strs of string array

val null_int : int
(** Sentinel representing NULL in integer columns. *)

val length : t -> int
val ty : t -> Value.ty

val get : t -> int -> Value.t

val get_int : t -> int -> int
(** Raw integer cell (may be {!null_int}); raises [Invalid_argument] on a
    string column. *)

val get_str : t -> int -> string
(** Raises [Invalid_argument] on an integer column. *)

val of_values : Value.ty -> Value.t array -> t
(** Build a column of the given type; values must match the type or be
    [Null] (strings use [""] to encode NULL, which the engine treats as a
    normal value — string columns in this system are never nullable). *)
