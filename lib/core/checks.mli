(** The inline invariant checks: the four analysis layers run as assertions
    inside the planning pipeline, so a corrupted plan or a broken
    re-optimization rewrite raises at the step that produced it instead of
    turning into a wrong answer.

    One list of checks selects them. {!Session.plan} and {!Reopt.run} take
    it as [?checks]; absent, they read the [RDB_CHECKS] environment
    variable through {!env} — e.g. [RDB_CHECKS=lint,verify]. *)

module Finding := Rdb_analysis.Finding

type check =
  | Lint  (** [Query_lint] + [Plan_lint]: is the query/plan well-formed? *)
  | Verify
      (** [Card_bound] on every plan and the [Equiv] proof of every rewrite
          step: can the estimates happen, is the rewrite equivalent? *)
  | Sensitivity
      (** [Sensitivity] at the paper's envelope factor 32: interval cost
          propagation and the cost-consistency recomputation only — no
          corner replans on the planning hot path *)
  | Resource
      (** [Resource]: well-formedness of the certified memory/work envelope
          only — no transition simulation *)

exception Check_failed of check * Finding.t list
(** The failing check and its error-severity findings; the registered
    printer renders them one per line. *)

val name : check -> string
(** ["lint"], ["verify"], ["sensitivity"], ["resource"]. *)

val of_string : string -> check list
(** Parse a comma-separated list such as ["lint, verify"]: tokens are
    trimmed, empty tokens skipped, and the result is in the fixed run order
    without duplicates. Raises [Invalid_argument] naming the bad token and
    the four valid names. *)

val env : unit -> check list
(** {!of_string} of [RDB_CHECKS], read on every call; [[]] when unset.
    Raises [Invalid_argument] (prefixed ["RDB_CHECKS: "]) when malformed. *)

val plan :
  check list ->
  catalog:Catalog.t ->
  estimator:Rdb_card.Estimator.t ->
  Rdb_query.Query.t ->
  Rdb_plan.Plan.t ->
  unit
(** Run the selected checks on a chosen plan, always in the order lint,
    verify, sensitivity, resource; the first with error findings raises
    {!Check_failed}. *)

val step :
  check list ->
  catalog:Catalog.t ->
  original:Rdb_query.Query.t ->
  set:Rdb_util.Relset.t ->
  temp_cols:Rdb_query.Query.colref list ->
  temp_name:string ->
  Rdb_query.Query.t ->
  unit
(** Run the selected checks on one re-optimization rewrite step: lint the
    rewritten query (temp table bound in the catalog), then prove it
    equivalent to [original] with the temp table inlined back. *)
