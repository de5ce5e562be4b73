(** Relation schemas: ordered, named, typed columns, plus optional declared
    integrity constraints (unique columns, foreign keys, not-null columns).

    Constraints are declarations, not enforced by the storage layer: the
    generators are expected to produce data satisfying them, the verifier's
    cardinality-bound analysis treats them as ground truth, and the test
    suite re-validates them against the actual data. *)

type column = { name : string; ty : Value.ty }

type fk = { fk_col : int; ref_table : string; ref_col : string }
(** [fk_col] (a position in this schema) references column [ref_col] of
    table [ref_table]. The referenced column is expected to be unique and
    every non-NULL value of [fk_col] is expected to appear in it. *)

type t

val make :
  ?unique:string list ->
  ?not_null:string list ->
  ?fks:(string * string * string) list ->
  column list ->
  t
(** Column names must be distinct; raises [Invalid_argument] otherwise.
    [unique] and [not_null] name columns of this schema; [fks] lists
    [(column, referenced table, referenced column)] triples. Constraint
    column names must resolve; the referenced table is checked lazily by
    consumers (it may not exist yet when the schema is built). *)

val arity : t -> int
val columns : t -> column array
val column : t -> int -> column

val find : t -> string -> int option
(** Position of a column by name. *)

val find_exn : t -> string -> int
(** Like {!find} but raises [Not_found]. *)

val is_unique : t -> int -> bool
(** The column was declared unique (no duplicate non-NULL values). *)

val is_not_null : t -> int -> bool
(** The column was declared free of NULLs. *)

val fk_of : t -> int -> fk option
(** The foreign-key declaration on a column, if any. *)

val fks : t -> fk list
