(** Debug-mode wiring: install the lint passes as invariant checkers inside
    the planning pipeline.

    With the [RDB_LINT] switch on (see [Rdb_plan.Optimizer.env_switch]),
    or an explicit [~lint:true] argument at the call sites that take one,
    every plan returned by [Optimizer.plan]/[plan_robust] and every
    re-optimization rewrite step is linted, and error-severity findings
    raise {!Lint_failed} instead of letting a corrupted artifact produce
    wrong answers. *)

exception Lint_failed of Finding.t list
(** Carries the error-severity findings; the registered printer renders
    them one per line. *)

val sensitivity_threshold : unit -> float option
(** The Q-error envelope factor requested through [RDB_SENSITIVITY]:
    [None] when the switch is off (unset/empty/[0]/[false]), [Some 32.]
    for [1]/[true] or a non-numeric value (the default envelope), [Some t]
    for a numeric value [t >= 1]. *)

val install : unit -> unit
(** Install the plan-lint hook into [Rdb_plan.Optimizer.lint_hook], the
    plan-robustness analyzer into [Rdb_plan.Optimizer.sensitivity_hook]
    (interval cost propagation and cost-consistency checks only — no corner
    replans on the planning hot path), and the resource certifier into
    [Rdb_plan.Optimizer.resource_hook] (certificate well-formedness only —
    no transition simulation, enabled via [RDB_RESOURCE]). Idempotent;
    called by [Rdb_core.Session.create], so any session-based pipeline
    honors [RDB_LINT] / [RDB_SENSITIVITY] / [RDB_RESOURCE] without further
    wiring. *)

val check_query_exn : catalog:Catalog.t -> Rdb_query.Query.t -> unit
(** Run {!Query_lint.check}; raise {!Lint_failed} on error findings. *)

val check_plan_exn :
  catalog:Catalog.t ->
  ?estimator:Rdb_card.Estimator.t ->
  Rdb_query.Query.t ->
  Rdb_plan.Plan.t ->
  unit
(** Run {!Query_lint.check} and {!Plan_lint.check}; raise {!Lint_failed} on
    error findings. *)
