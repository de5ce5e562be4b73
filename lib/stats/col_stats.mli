(** Per-column statistics, the PostgreSQL [pg_stats] analog: row count,
    NULL fraction, number of distinct values, min/max, most common values
    and an equi-depth histogram (integer columns only). *)

type t = {
  row_count : int;        (** rows in the table at ANALYZE time *)
  null_frac : float;      (** fraction of NULL cells *)
  n_distinct : int;       (** distinct non-NULL values *)
  min_val : int option;   (** smallest non-NULL value (int columns) *)
  max_val : int option;   (** largest non-NULL value (int columns) *)
  mcv : Mcv.t;            (** most common values *)
  hist : Histogram.t option;  (** equi-depth histogram (int columns) *)
}

val trivial : row_count:int -> t
(** Statistics claiming one distinct value and no detail; placeholder for
    columns that were never analyzed. *)
