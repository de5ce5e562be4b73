(** EXPLAIN ANALYZE rendering: the plan tree annotated with what actually
    happened when it ran — per-operator actual rows, Q-error and own time
    ([time=...ms], excluding the operator's inputs) from the executor's
    observations, adaptive operator switches (planned vs
    executed algorithm), and, when a trigger is supplied, a marker on the
    join the re-optimizer would materialize (chosen exactly as
    {!Reopt.find_trigger} does: fewest relations, then deepest, then
    post-order). A totals line (rows, work units, execution time,
    switches) follows the tree. *)

module Plan := Rdb_plan.Plan
module Executor := Rdb_exec.Executor

val render :
  ?trigger:Trigger.t ->
  ?bounds:bool ->
  Session.prepared ->
  Plan.t ->
  Executor.result ->
  string
(** [render ?trigger prepared plan res] — [res] must come from executing
    [plan] (its observations are keyed by the plan's relation sets).
    [bounds] (default false) additionally prints the symbolic verifier's
    sound cardinality interval ([Rdb_verify.Card_bound.interval]) next to
    each node's estimated and actual rows. *)
