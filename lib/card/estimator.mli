(** The instrumented cardinality estimator — the paper's modified
    PostgreSQL. One estimator serves one query; estimates are cached per
    relation subset, so each subset is estimated exactly once regardless of
    how many plans the enumerator considers (as in PostgreSQL's
    [PlannerInfo]).

    Modes:
    - [Default]: statistics + uniformity/independence assumptions.
    - [Perfect n]: true cardinalities for subsets of at most [n] relations
      (the paper's perfect-(n)); larger subsets use the default composition
      over the perfect inputs. [Perfect (Query.n_rels q)] is the paper's
      perfect-(17): every estimate true.
    - [Feedback]: consult a correction source (typically
      [Rdb_core.Feedback.lookup], possibly gated) before the default
      composition. [Feedback (Hashtbl.find_opt pinned)] pins selected
      subsets to given values, the LEO-style selective correction of
      §IV-E. The probe happens once per memoized subset — lookup is
      demand-driven from the DP enumeration, never an eager sweep over
      every connected subset.
    - [Sampling]: index-based join sampling (§II-C's practical contender):
      estimates come from pushing a bounded row sample through the real
      joins. *)

module Relset = Rdb_util.Relset
module Db_stats := Rdb_stats.Db_stats
module Query := Rdb_query.Query

type mode =
  | Default
  | Perfect of int
  | Feedback of (Relset.t -> float option)
  | Sampling of Join_sample.t

type t

val create :
  ?bound:(Relset.t -> float -> float) ->
  mode:mode ->
  catalog:Catalog.t ->
  stats:Db_stats.t ->
  ?oracle:Oracle.t ->
  Query.t ->
  t
(** [oracle] is required by [Perfect _]; raises
    [Invalid_argument] when missing. [bound], when given, is applied to
    every memoized estimate (subset, raw estimate) before the 1-row floor —
    the verifier's pessimistic clamp to its sound interval. *)

val mode : t -> mode

val db_stats : t -> Db_stats.t
(** The statistics snapshot the estimator was built over. *)

val oracle : t -> Oracle.t option
(** The true-cardinality oracle the estimator was built with, if any. The
    sensitivity analyzer uses it to rebuild an equivalent estimator with one
    subset's estimate pinned to a perturbed value. *)

val memoized : t -> Relset.t list
(** Every subset estimated so far, once each, in no particular order. An
    optimizer run asks for each subset's estimate through {!card}, so
    after planning this is the set of estimates the plan consulted — the
    count Table I buckets by join size. *)

val card : t -> Relset.t -> float
(** Estimated cardinality of a connected relation subset; always >= 1. *)

val base_card : t -> int -> float
(** Estimated cardinality of one relation after its predicates. *)

val pred_selectivity : t -> rel:int -> col:int -> Rdb_query.Predicate.t -> float
(** Estimated selectivity of a single predicate; the optimizer uses this to
    size equality index scans. *)

val table_rows : t -> int -> float
(** Physical row count of a relation's table (before predicates). *)
