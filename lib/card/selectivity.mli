(** Restriction selectivity estimation from column statistics, following
    PostgreSQL's formulas and — crucially for this paper — its simplifying
    assumptions: uniformity inside histogram buckets, independence between
    predicates, and fixed default selectivities for patterns it cannot
    analyze. These assumptions are exactly the error sources of §IV. *)

module Col_stats := Rdb_stats.Col_stats

val of_pred : Col_stats.t -> Rdb_query.Predicate.t -> float
(** Selectivity of one predicate on a column, in [\[0,1\]]. *)

val of_preds : Col_stats.t list -> Rdb_query.Predicate.t list -> float
(** Combined selectivity under the independence assumption (product),
    stats and predicates paired positionally. *)
