(** Join sampling — the style of cardinality estimation the paper cites as
    the strongest practical contender (Leis et al., CIDR'17, reference
    [4]): estimate a sub-join's cardinality by pushing a bounded sample of
    rows through the actual joins.

    This is the oracle's sub-join builder ({!Oracle.sub_join}) with a cap:
    per relation subset it keeps at most [sample_size] joined tuples plus
    a scale factor; extending a subset joins the parent's sample against
    the next relation's filtered rows and re-caps. Estimates reflect skew
    and cross-join correlation that statistics cannot see, at the price of
    real joins during planning — the trade-off §II-C discusses. *)

module Relset = Rdb_util.Relset

type t

val create : sample_size:int -> Oracle.t -> t
(** A sampler over the oracle's query, sharing its filtered rows, key
    arrays and key indexes. The sampler's seed is fixed, so estimates are
    deterministic. *)

val card : t -> Relset.t -> float
(** Estimated cardinality of a connected, non-empty subset (>= 0; 0 means
    the sample found no joining rows; else [Invalid_argument]). Memoized
    per subset. *)
