(** Single-column restriction predicates: everything the JOB subset of SQL
    needs (comparisons, BETWEEN, IN, LIKE on constant patterns, NULL
    tests). *)

type op = Eq | Ne | Lt | Le | Gt | Ge

type like_shape =
  | Prefix of string    (** LIKE 'abc%' *)
  | Suffix of string    (** LIKE '%abc' *)
  | Contains of string  (** LIKE '%abc%' *)

type t =
  | Cmp of op * Value.t
  | Between of int * int
  | In_list of Value.t list
  | Like of like_shape
  | Is_null
  | Is_not_null

val like_holds : like_shape -> string -> bool
(** Does a string match the LIKE pattern? *)

val eval : t -> Value.t -> bool
(** Does a cell satisfy the predicate? SQL three-valued logic collapses to
    false: a NULL cell satisfies only [Is_null]. *)

val eval_int : t -> int -> bool
(** Fast path for raw integer cells ({!Column.null_int} encodes NULL). *)

val eval_str : t -> string -> bool
(** Fast path for string cells. *)

val compile_filter : Table.t -> (int * t) list -> int -> bool
(** [compile_filter tbl preds] is the row test of a relation over [tbl]
    whose predicates are [preds] ((column, predicate) pairs, as
    [Query.preds_of_cols] returns them): [true] when the row satisfies
    every predicate, evaluated in list order through {!eval_int} and
    {!eval_str}. Compile once per query, then call per row. *)

val to_sql : col:string -> t -> string
(** Render as a SQL condition on the given column expression. *)
