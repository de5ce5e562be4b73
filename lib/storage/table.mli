(** In-memory columnar tables. Rows are addressed by dense row ids
    [0 .. nrows-1]; intermediate results elsewhere in the engine are vectors
    of row ids into base tables. *)

type t

val create : name:string -> schema:Schema.t -> Column.t array -> t
(** Columns must match the schema arity/types and share a length. *)

val name : t -> string
val schema : t -> Schema.t
val nrows : t -> int
val column : t -> int -> Column.t

val value : t -> row:int -> col:int -> Value.t

val int_cell : t -> row:int -> col:int -> int
(** Raw integer cell of an int column (NULL is {!Column.null_int}). *)

val row : t -> int -> Value.t array

val of_rows : name:string -> schema:Schema.t -> Value.t array list -> t
(** Build from row-major values, e.g. when materializing a temp table. *)
