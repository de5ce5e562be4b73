(** The query executor: materializing, instrumented evaluation of physical
    plans. Intermediate results are factorized: a scan's output is its
    base-table row ids, and a join's output is its two match vectors,
    which name the outer tuple and the inner tuple (or, for an index
    nested loop, the inner base-table row id) of each output tuple. No join
    copies a tuple. A member relation's row ids are composed through the
    vectors when an operator first reads them, and column values are
    fetched from the columnar base tables by row id.

    Every node records its true output cardinality — the information
    [EXPLAIN ANALYZE] gives the paper's re-optimization simulation — plus
    deterministic "work units" (rows scanned, probes, emits) that tests use
    instead of wall time. *)

module Relset = Rdb_util.Relset
module Query := Rdb_query.Query
module Plan := Rdb_plan.Plan

type node_obs = {
  obs_set : Relset.t;   (** relations covered by the node *)
  obs_est : float;      (** the optimizer's estimate *)
  obs_actual : int;     (** true rows produced *)
  obs_label : string;   (** operator name, for EXPLAIN ANALYZE output *)
  obs_ms : float;       (** the operator's own time on {!Rdb_obs.Clock},
                            excluding its children's *)
}

type result = {
  aggs : Value.t list;   (** one value per aggregate in the SELECT list *)
  out_rows : int;        (** rows feeding the aggregates *)
  work : int;            (** deterministic work units *)
  peak_rows : int;       (** peak resident row-slots, see below *)
  elapsed_ms : float;    (** execution time on {!Rdb_obs.Clock} *)
  observations : node_obs list;  (** post-order, deepest join first *)
  switches : int;        (** adaptive operator demotions performed *)
}
(** [work] and [peak_rows] are {!Rdb_plan.Plan.Usage} over the run's
    actual rows: [work] sums its charges, and [peak_rows] is its high-water
    mark of resident "row-slots" (one base-table rowid or hash-table entry
    each). [Rdb_analysis.Resource] evaluates the same rule over cardinality
    intervals, so a non-adaptive run (a demotion changes the operator mix)
    of a certified plan observes both within the certificate. The
    row-slots are the rule's model, not the physical layout: an
    intermediate of [n] rows over [w] relations counts [n * w] slots,
    though it is held as two match vectors and the row-id columns composed
    from them; a hash join's build table counts one entry per inner row,
    whatever its buckets take; and a growing vector's slack is not
    charged. *)

exception Work_budget_exceeded of { spent : int; elapsed_ms : float }
(** Raised when the optional work budget runs out: the executor's guard
    against catastrophic plans that would otherwise run for hours (the
    paper's >100x regressions, §V-D). *)

val execute :
  ?work_budget:int ->
  ?deadline_ms:float ->
  ?adaptive:bool ->
  catalog:Catalog.t ->
  query:Query.t ->
  Plan.t ->
  result
(** [work_budget] and [deadline_ms] both abort via
    {!Work_budget_exceeded}: the former deterministically, the latter by
    {!Rdb_obs.Clock} — checked on a geometric schedule starting after ~1k work
    units (so millisecond deadlines bite even on cheap plans) and backing
    off to every ~4M units. [adaptive] (default false)
    enables Cuttlefish-style runtime operator switching (§II-D): a
    nested-loop-family join whose outer input exceeds its estimate 8x is
    demoted to a hash join — join order stays fixed, the very limitation
    the paper contrasts with re-optimization. *)

type materialization = {
  mat_rows : Value.t array list;  (** row-major projection *)
  mat_work : int;
  mat_peak_rows : int;  (** as {!result.peak_rows}, including the projected
                            cells built alongside the final intermediate *)
  mat_elapsed_ms : float;
}

val materialize :
  ?work_budget:int ->
  ?deadline_ms:float ->
  catalog:Catalog.t ->
  query:Query.t ->
  cols:Query.colref list ->
  Plan.t ->
  materialization
(** Execute a plan and project its output onto the given column references
    — the body of the re-optimizer's [CREATE TEMPORARY TABLE]. *)
