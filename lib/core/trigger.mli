(** The re-optimization trigger: fire when a join's true cardinality
    deviates from the estimate by at least a Q-error threshold (the paper
    re-optimizes when the factor-[n] condition of §V-A holds; threshold 32
    is its sweet spot). *)

type t = { threshold : float  (** minimum Q-error that triggers, >= 1 *) }

val create : float -> t
(** Raises [Invalid_argument] unless the threshold is [>= 1] (NaN
    included). *)

val fires : t -> est:float -> actual:float -> bool
