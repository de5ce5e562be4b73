(** Mid-query re-optimization — the paper's contribution (§V).

    The simulated scheme: plan the query; find the lowest join operator
    whose true cardinality differs from the estimate by at least the
    trigger's Q-error threshold; execute that sub-join and materialize it
    as a temporary table ([CREATE TEMPORARY TABLE … AS SELECT …]); ANALYZE
    the temp table; rewrite the remainder of the query with the temp table
    substituted for the materialized relations; re-plan; repeat until no
    join trips the trigger; execute the final SELECT.

    Accounting mirrors §V: planning time is the initial plan plus every
    re-plan of the SELECT (temp-table creation is not re-planned — its plan
    is the already-chosen subtree); execution time is the sum of the
    materializations and the final execution. *)

module Relset = Rdb_util.Relset
module Query := Rdb_query.Query
module Plan := Rdb_plan.Plan
module Executor := Rdb_exec.Executor

type step = {
  materialized_set : Relset.t;
      (** relation indexes materialized, in the pre-step query's numbering *)
  materialized_aliases : string list;
  temp_name : string;
  temp_rows : int;
  trigger_q_error : float;
  trigger_est : float;
  mat_ms : float;    (** execution time of the temp-table creation *)
  mat_work : int;
  replan_ms : float; (** planning time of the rewritten SELECT *)
  query_after : Query.t;
}

type outcome = {
  steps : step list;
  final_query : Query.t;
  final_plan : Plan.t;
  final_exec : Executor.result;
  initial_plan_ms : float;
  total_plan_ms : float;   (** initial plan + every re-plan *)
  total_exec_ms : float;   (** materializations + final execution *)
  total_work : int;
  peak_rows : int;
      (** peak resident row-slots across the whole run: each phase's
          executor peak plus the temp-table cells of every earlier step,
          still live until cleanup — the re-opt analog of
          [Executor.result.peak_rows] *)
}

val run :
  ?checks:Checks.check list ->
  ?work_budget:int ->
  ?deadline_ms:float ->
  ?cleanup:bool ->
  ?max_steps:int ->
  ?initial:Session.prepared ->
  Session.t ->
  trigger:Trigger.t ->
  mode:Rdb_card.Estimator.mode ->
  Query.t ->
  outcome
(** Run the full re-optimization loop. [mode] is the estimator used for
    (re-)planning, so re-optimization composes with perfect-(n) as in
    Figure 8. [cleanup] (default true) drops the temporary tables from the
    catalog afterwards; [~cleanup:false] keeps them only for a run that
    returns — an aborted run always drops its temps, since the caller
    never learns their names. [max_steps] (default 32) bounds the loop.
    The session's feedback store, if any, receives every observed true
    cardinality — each step's materialized row count and the
    final execution's per-node observations — re-keyed against the
    *original* query: rewrites renumber relations and splice in temp
    tables, so the loop composes a per-relation origin map across steps
    and records every observation under a base-table signature.
    [checks] (default: {!Checks.env}, the [RDB_CHECKS] variable; an
    explicit list replaces it) run on every plan ({!Checks.plan}) and on
    every rewritten query ({!Checks.step}): [Lint] lints both, [Verify]
    checks every plan's estimates against sound cardinality bounds and
    proves each rewrite step equivalent to its pre-step query — the temp
    table inlined back, both conjunctive normal forms isomorphic. Error
    findings raise {!Checks.Check_failed}. *)

val find_trigger :
  Session.prepared ->
  Plan.t ->
  Trigger.t ->
  (Plan.join * Relset.t * float * float) option
(** The join the trigger selects for materialization, with its relation
    set, estimate and Q-error: the first join of {!Plan.trigger_order}
    (fewest relations, then deepest, then post-order) that trips, so the
    choice is deterministic even when several joins of the same size trip.
    [None] when no join trips. Only the joins up to that first trip are
    priced through the oracle: callers such as EXPLAIN ANALYZE must not
    assume every join's true cardinality is cached afterwards. Exposed for
    EXPLAIN ANALYZE (which marks this join) and for the tie-break
    regression tests. *)

val rewrite :
  Query.t ->
  set:Relset.t ->
  temp_name:string ->
  temp_cols:Query.colref list ->
  Query.t
(** The pure query rewrite: replace the relations of [set] by a temp table
    exposing [temp_cols] (one column per listed reference, in order).
    Exposed for tests and the Figure 6 example. *)

val needed_cols : Query.t -> Relset.t -> Query.colref list
(** The columns a materialization of [set] must expose: one representative
    per equivalence class (under the set's internal equi-join edges) of the
    columns referenced by crossing join edges or aggregates. *)
