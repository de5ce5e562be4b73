(** The bound logical query: a select-project-join block in the shape of
    every JOB query — a set of aliased relations, conjunctive single-column
    predicates, equi-join edges, and MIN/COUNT aggregates. *)

type rel = { alias : string; table : string }

type colref = { rel : int; col : int }
(** [rel] indexes into {!field:t.rels}; [col] is a position in that
    relation's table schema. *)

type pred = { target : colref; p : Predicate.t }

type edge = { l : colref; r : colref }
(** An equi-join [l = r]. Join columns must be integer-typed. *)

type agg =
  | Count_star
  | Count_col of colref  (** non-NULL count *)
  | Min_col of colref
  | Max_col of colref
  | Sum_col of colref    (** integer column; NULLs skipped *)

type t = {
  name : string;
  rels : rel array;
  preds : pred list;
  edges : edge list;
  select : agg list;
}

val n_rels : t -> int

val preds_of_cols : t -> int -> (int * Predicate.t) list
(** [(col, pred)] pairs restricting a given relation. *)

val pred_counts : t -> int array
(** The number of predicates restricting each relation. *)

val edges_between : t -> Rdb_util.Relset.t -> Rdb_util.Relset.t -> edge list
(** Join edges with one endpoint in each (disjoint) set, oriented so that
    [l] falls in the first set. *)

val edges_within : t -> Rdb_util.Relset.t -> edge list
(** Edges with both endpoints inside the set. *)

val rel_alias : t -> int -> string

val aliases : t -> Rdb_util.Relset.t -> string list
(** The set's aliases, in relation order. *)

val validate : Catalog.t -> t -> (unit, string) result
(** Check every relation exists, every column index is in range, every
    join column is integer-typed, and every join edge joins two different
    relations. *)

val all_rels : t -> Rdb_util.Relset.t
