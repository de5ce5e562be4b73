(** Static resource certification: an abstract interpretation of physical
    plans that turns sound cardinality intervals into sound end-to-end
    bounds on what a plan may consume before it runs.

    The fifth analysis layer (after lint, verify, sensitivity, racecheck).
    Where {!Sensitivity} asks "which estimate does the plan's *optimality*
    depend on", this pass asks "how much memory and work can the plan cost
    us if the estimates are wrong" — the question a multi-tenant server
    must answer before admitting a query, because the paper's failure mode
    (a mis-estimated low join exploding at runtime, §V-D) is precisely a
    resource blow-up the optimizer's point estimates hid.

    Certified, in the executor's own units:
    - {b peak resident row-slots} and {b work units}
      ([Rdb_exec.Executor.result.peak_rows] and [work]):
      {!Rdb_plan.Plan.Usage}, the rule the executor charges, evaluated at
      both ends of the cardinality intervals. This module adds no term of
      its own, only what a run counts: output rows from [bounds], and
      index fan-outs bounded by MCV max-frequency;
    - {b worst-case replan count} for a re-opt-enabled execution, plus an
      abstract simulation of [Rdb_core.Reopt]'s trigger/materialize/replan
      loop that detects oscillation (the same plan shape re-planned twice —
      thrashing) and materializations the bounds prove useless (no
      admissible actual changes the DP choice, so the paid temp table
      cannot improve the plan).

    Soundness contract: [cert_mem]/[cert_work]/[cert_out] are sound for a
    non-adaptive execution of the certified plan whenever [bounds] is sound
    (contains the true cardinality of every relation subset). The default
    [bounds] is the trivial cross-product bound; real callers pass
    [Rdb_verify.Card_bound.interval], and [Rdb_core.Session.certify] wires
    exactly that. The transition simulation additionally narrows plausible
    actuals with the trigger's Q-error envelope — its products
    ([reopt_report]) describe the worst-case *trajectory* of the abstract
    loop, while [cert_replans_hi] is the unconditional structural bound
    (each materialization removes at least one relation). *)

module Relset = Rdb_util.Relset
module Query := Rdb_query.Query
module Estimator := Rdb_card.Estimator
module Interval := Rdb_cost.Interval
module Plan := Rdb_plan.Plan
module Search_space := Rdb_plan.Search_space
module Json := Rdb_obs.Json

type bounds = Relset.t -> float * float
(** Sound interval on the true cardinality of a relation subset of the
    query: the true row count must lie within [[lo, hi]]. *)

type transition = {
  tr_set : Relset.t;            (** the join the trigger materializes *)
  tr_aliases : string list;
  tr_est : float;               (** the plan's estimate for the set *)
  tr_interval : float * float;  (** plausible actuals at this step *)
  tr_assumed : float;           (** worst-Q-error corner taken as the
                                    confirmed cardinality *)
  tr_temp_slots_hi : float;     (** hi bound on the temp table's cells:
                                    rows hi x needed-column bound *)
  tr_shape_before : string;
  tr_shape_after : string;      (** {!Plan.shape} after the pinned replan *)
  tr_useless : bool;            (** no admissible actual in [tr_interval]
                                    changes the DP choice — the bounds
                                    prove the materialization cannot
                                    improve the plan *)
}

type reopt_report = {
  ro_threshold : float;
  ro_transitions : transition list;  (** in simulation order *)
  ro_predicted_replans : int;        (** length of the trajectory *)
  ro_stable : bool;   (** the loop reached a state with no possible trigger
                          within the replan bound *)
  ro_thrashing : (string * int * int) option;
      (** [(shape, i, j)]: the plan shape at step [i] was departed and
          re-planned back into at step [j] — the loop oscillates *)
  ro_temp_slots_hi : float;  (** total temp-table cells along the
                                 trajectory, all live simultaneously at the
                                 final execution *)
}

type cert = {
  cert_shape : string;       (** {!Plan.shape} of the certified plan *)
  cert_mem : Interval.t;     (** peak resident row-slots *)
  cert_work : Interval.t;    (** executor work units *)
  cert_out : Interval.t;     (** rows into the aggregates *)
  cert_replans_hi : int;     (** structural worst case on re-opt steps:
                                 min(32, relations - 1), 32 being
                                 [Rdb_core.Reopt.run]'s step limit *)
  cert_reopt : reopt_report option;  (** the transition simulation, when
                                         requested *)
}

val certify :
  ?bounds:bounds ->
  ?transitions:bool ->
  ?threshold:float ->
  ?space:Search_space.t ->
  catalog:Catalog.t ->
  estimator:Estimator.t ->
  Query.t ->
  Plan.t ->
  cert
(** Certify a plan. [bounds] defaults to [[0, the product of the member
    tables' rows]] (sound but very loose — pass the verifier's intervals).
    [transitions] (default [false]; each simulated step costs up to three
    DP replans) runs the re-opt transition analysis with trigger
    [threshold] (default 32, the paper's sweet spot) for at most
    [cert_replans_hi] simulated steps. [space] reuses a prebuilt search
    space across the replans. *)

val detect_oscillation : string list -> (string * int * int) option
(** [(shape, i, j)] when the [i]-th shape of the sequence reappears at
    position [j] after an intervening different shape — the thrashing
    detector, exposed for the seeded-mutant test. *)

val findings : ?budget:float -> Query.t -> cert -> Finding.t list
(** Severity-tagged findings:
    - [resource-cert-invalid] (error): the certificate's own intervals are
      malformed (lo > hi, negative bounds) — an analyzer or bounds bug;
    - [resource-over-budget] (error, only when [budget] is given): the
      certified peak-memory hi-bound exceeds the budget — the admission
      controller's reason for rejecting the plan;
    - [resource-thrashing] (warning): the transition simulation re-planned
      into an already-visited shape;
    - [resource-useless-materialization] (warning): a simulated step's
      bounds prove no admissible actual changes the DP choice;
    - [resource-certificate] (info): the one-line certificate summary. *)

val check :
  catalog:Catalog.t -> estimator:Estimator.t -> Query.t -> Plan.t ->
  Finding.t list
(** [certify] with its defaults followed by [findings] without a budget —
    the shape [Rdb_core.Checks] consumes. *)

val json_interval : Interval.t -> Json.t
(** [{"lo": ..., "hi": ...}], the JSON form of every interval in the
    analysis reports. *)

val envelope_fields : cert -> (string * Json.t) list
(** The certificate's shape, [mem], [work] and [out] intervals and
    [replans_hi] as JSON fields, shared by {!to_json} and the
    [reoptdb resources --json] rows. *)

val to_json : cert -> Json.t
(** The certificate as strict JSON, for the server's [\resources]
    command. *)

val mem_hi : cert -> float
(** [cert.cert_mem.hi] — the admission controller's comparison key. *)
