(** Debug-mode wiring: install the symbolic verifier as an invariant
    checker inside the planning pipeline, mirroring
    [Rdb_analysis.Debug] / [RDB_LINT].

    With the [RDB_VERIFY] switch on (see [Rdb_plan.Optimizer.env_switch]),
    or an explicit [~verify:true] argument at the call sites that take one,
    every plan returned by [Optimizer.plan]/[plan_robust] is checked
    against the sound cardinality bounds, every re-optimization rewrite
    step is proved equivalent to its original query, and error-severity
    findings raise {!Verify_failed}. *)

module Finding := Rdb_analysis.Finding

exception Verify_failed of Finding.t list
(** Carries the error-severity findings; the registered printer renders
    them one per line. *)

val install : unit -> unit
(** Install the bound checker into [Rdb_plan.Optimizer.verify_hook].
    Idempotent; called by [Rdb_core.Session.create]. *)

val check_plan_exn :
  catalog:Catalog.t ->
  stats:Rdb_stats.Db_stats.t ->
  Rdb_query.Query.t ->
  Rdb_plan.Plan.t ->
  unit
(** Run {!Card_bound.check_plan}; raise {!Verify_failed} on errors. *)

val check_step_exn :
  catalog:Catalog.t ->
  original:Rdb_query.Query.t ->
  set:Rdb_util.Relset.t ->
  temp_cols:Rdb_query.Query.colref list ->
  temp_name:string ->
  Rdb_query.Query.t ->
  unit
(** Run {!Equiv.check_step}; raise {!Verify_failed} on errors. *)

val fail_on_errors : Finding.t list -> unit
