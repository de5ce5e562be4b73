(** Equi-depth histograms over integer columns, in the style of
    PostgreSQL's [histogram_bounds]: each bucket holds (approximately) the
    same number of rows, and range selectivity is estimated by linear
    interpolation inside the boundary buckets. *)

type t

val build : ?buckets:int -> int array -> t option
(** [build values] sorts a copy of [values] and produces an equi-depth
    histogram with at most [buckets] buckets (default 100). Returns [None]
    on an empty input. Values already excluding NULLs. *)

val of_sorted : ?buckets:int -> int array -> t option
(** {!build} on values already sorted ascending, which are not copied. *)

val n_buckets : t -> int

val bounds : t -> int array
(** The [n_buckets + 1] bucket boundaries, non-decreasing. *)

val fraction_le : t -> int -> float
(** Estimated fraction of values [<= v], in [\[0,1\]]. *)

val fraction_between : t -> lo:int -> hi:int -> float
(** Estimated fraction of values in the inclusive range, in [\[0,1\]]. *)
