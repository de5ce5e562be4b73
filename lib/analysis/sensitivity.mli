(** Plan-robustness analysis: interval abstract interpretation of the cost
    model, with a static prediction of the re-optimization trigger.

    The paper's central finding is that plans are fragile — one bad estimate
    at a low join flips the optimizer into a disastrous plan, and the
    re-optimizer only discovers this at runtime by paying for a
    materialization. This pass asks the question *before* execution: given
    an envelope of how wrong each cardinality estimate may be, (a) which
    join would trip [Rdb_core.Reopt.find_trigger] (predicted statically,
    including its fewest-relations / deepest / post-order tie-break), and
    (b) which join's estimate, moved to a corner of its envelope, makes the
    DPccp optimizer choose a different plan — the joins whose estimates the
    plan's optimality actually depends on.

    The analyzer never executes a query: everything it knows about true
    cardinalities arrives through the {!envelope} it is given — a Q-error
    envelope [[est/q, est·q]], the symbolic verifier's sound
    [Rdb_verify.Card_bound] intervals, or (in tests) the oracle's exact
    counts as degenerate point intervals. *)

module Relset = Rdb_util.Relset
module Query := Rdb_query.Query
module Estimator := Rdb_card.Estimator
module Interval := Rdb_cost.Interval
module Plan := Rdb_plan.Plan
module Search_space := Rdb_plan.Search_space

type envelope = Relset.t -> est:float -> float * float
(** Where the true cardinality of a relation subset may lie, given the
    optimizer's point estimate for it. Must contain values [>= 0] with
    [lo <= hi]. *)

val q_envelope : float -> envelope
(** [[est/q, est·q]] — the factor-[q] error model of the paper's trigger
    (§V-A). Raises [Invalid_argument] unless [q >= 1] (NaN included). *)

val point_envelope : (Relset.t -> float) -> envelope
(** Degenerate intervals from exact cardinalities (e.g.
    [Rdb_card.Oracle.true_card]); the configuration under which the static
    trigger prediction must coincide with the dynamic trigger. *)

val of_intervals : (Relset.t -> float * float) -> envelope
(** Adapt an interval source that ignores the estimate, e.g.
    [Rdb_verify.Card_bound.interval]. *)

val intersect : envelope -> envelope -> envelope
(** Pointwise intersection; contradictory envelopes collapse to the point
    estimate clamped into both. *)

(** {1 Per-node interval interpretation} *)

type node = {
  node_set : Relset.t;
  node_est : float;              (** the optimizer's point estimate *)
  node_interval : float * float; (** envelope on the node's true rows *)
  node_cost : Interval.t;        (** subtree cost over the envelope *)
  node_is_join : bool;
}

type prediction = {
  pred_set : Relset.t;
  pred_aliases : string list;
  pred_est : float;
  pred_interval : float * float;
  pred_q_error : float;  (** worst-case Q-error within the interval *)
  pred_certain : bool;
      (** every admissible actual trips the trigger, not just a corner *)
}

type fragility = {
  frag_set : Relset.t;
  frag_aliases : string list;
  frag_est : float;
  frag_interval : float * float;
  frag_q_error : float;  (** worst-case Q-error within the interval *)
  frag_trips : bool;
      (** some admissible actual makes the re-optimization trigger fire *)
  frag_flips : (float * string) option;
      (** a corner estimate at which re-running the DP chose a structurally
          different plan, with the new plan's {!Plan.shape} — [None] when
          the plan choice is stable across this join's corners (or corner
          replanning was disabled / rationed away for this node) *)
}

type report = {
  threshold : float;
  plan_shape : string;
  root_cost : Interval.t;
  nodes : node list;            (** post-order *)
  predicted : prediction option;
  fragilities : fragility list; (** join nodes, post-order *)
  cost_mismatches : (Relset.t * float * float) list;
      (** (set, recorded cost, recomputed cost) for the joins, in
          post-order, whose recorded cost disagrees with
          [Rdb_plan.Plan.join_cost] at the plan's own estimates and the
          children's recorded costs — plan corruption *)
}

val predict_trigger :
  envelope:envelope ->
  threshold:float ->
  Query.t ->
  Plan.t ->
  prediction option
(** The join [Rdb_core.Reopt.find_trigger] would materialize, predicted
    statically: a join is a candidate when some actual inside its envelope
    interval fires the trigger, and candidates are ranked exactly as the
    dynamic trigger ranks them — the first candidate of
    {!Plan.trigger_order}, so [envelope] is evaluated only up to it. Under
    {!point_envelope} of the true cardinalities this reproduces the
    dynamic choice exactly. *)

val replan :
  space:Search_space.t ->
  catalog:Catalog.t ->
  estimator:Estimator.t ->
  Query.t ->
  (Relset.t * float) list ->
  Plan.t
(** Re-run the DPccp optimizer with each listed subset's estimate pinned
    to the given cardinality; every other estimate is the [estimator]'s
    own, bit for bit. *)

val analyze :
  ?envelope:envelope ->
  ?threshold:float ->
  ?corner_replans:bool ->
  ?corner_limit:int ->
  ?space:Search_space.t ->
  catalog:Catalog.t ->
  estimator:Estimator.t ->
  Query.t ->
  Plan.t ->
  report
(** Full analysis of a chosen plan. [envelope] defaults to
    [q_envelope threshold]; [threshold] defaults to 32 (the paper's sweet
    spot). [corner_replans] (default true) re-runs the DPccp optimizer with
    one join subset pinned to each corner of its envelope ({!replan}) and
    diffs
    the chosen plan against the original ({!Plan.same_shape}).
    [corner_limit] rations the replans to the joins with the largest
    worst-case Q-error (the lint sweep caps this; the [fragility] sweep
    does not). [space] reuses a prebuilt search space across the
    replans. *)

val fragile_sets : report -> Relset.t list
(** The relation subsets of joins whose corner estimates flipped the
    DP-chosen plan ([frag_flips <> None]) — the joins a feedback
    correction must not be allowed to move (see
    [Rdb_core.Feedback.gate]). *)

val findings : Query.t -> report -> Finding.t list
(** Severity-tagged findings:
    - [interval-cost-mismatch] (error): a node's recorded cost disagrees
      with the cost model applied to its own estimates — the plan was
      costed by something other than the model, or corrupted after costing;
    - [fragile-join] (warning): an estimation error inside the envelope
      flips the DP-optimal plan *and* would trip the re-optimizer — the
      plan depends on an estimate the engine itself considers suspect;
    - [reopt-blind-spot] (warning): the envelope flips the plan at a corner
      the trigger can never see (worst-case Q-error below the threshold) —
      re-optimization would not rescue this plan;
    - [predicted-reopt-trigger] (info): the static trigger prediction;
    - [plan-robust] (info): no corner of the envelope changes the plan and
      no trigger is predicted. *)

val check :
  ?threshold:float ->
  ?corner_replans:bool ->
  ?corner_limit:int ->
  ?space:Search_space.t ->
  catalog:Catalog.t ->
  estimator:Estimator.t ->
  Query.t ->
  Plan.t ->
  Finding.t list
(** [analyze] under the default [q_envelope threshold], followed by
    [findings] — the shape [Rdb_core.Checks] and the [reoptdb lint] sweep
    consume. *)
