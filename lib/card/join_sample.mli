(** Index-based join sampling — the style of cardinality estimation the
    paper cites as the strongest practical contender (Leis et al., CIDR'17,
    reference [4]): estimate a sub-join's cardinality by pushing a uniform
    sample of rows through the actual joins, using the catalog's hash
    indexes.

    Per relation subset the estimator keeps a bounded sample of join
    results plus a scale factor; extending a subset joins the parent's
    sample against the next relation and re-caps. Estimates reflect skew
    and cross-join correlation that statistics cannot see, at the price of
    real index probes during planning — the trade-off §II-C discusses. *)

module Relset = Rdb_util.Relset
module Query := Rdb_query.Query

type t

val create : ?sample_size:int -> Catalog.t -> Query.t -> t
(** Default sample size 512 rows per subset; the sampler's seed is fixed,
    so estimates are deterministic. *)

val card : t -> Relset.t -> float
(** Estimated cardinality of a connected subset (>= 0; 0 means the sample
    found no joining rows). Memoized per subset. *)

val probes : t -> int
(** Total rows touched while sampling so far — the planning-time cost the
    paper warns about. *)
