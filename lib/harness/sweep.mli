(** The workload analysis sweeps behind [reoptdb lint], [verify],
    [resources] and [fragility]. All four share one per-query loop over a
    {!Runner.lab} — its database, its prepared queries, its estimation
    modes and its execution budget — and each returns a typed report with
    its findings; rendering is the caller's.

    Findings are (context, finding) pairs in collection order, for
    {!Rdb_analysis.Finding.summarize}. A context is a query name,
    optionally followed by a space and a bracketed configuration label:
    ["6d"], ["6d [default]"], ["6d [perfect-4]"], ["6d [reopt step temp_3]"],
    ["6d [reopt final]"], or ["6d [reopt]"] for a failed inline check.
    A sweep's [?queries] defaults to the lab's whole workload. *)

module Query := Rdb_query.Query
module Sensitivity := Rdb_analysis.Sensitivity

type findings = (string * Rdb_analysis.Finding.t) list

val query_of : string -> string
(** The query name of a context: everything before the first space. The
    lint sweep's dedupe key: one finding seen under several configurations
    of the same query is one finding. *)

type counts = {
  n_plans : int;   (** plans checked *)
  n_steps : int;   (** re-optimization rewrite steps linted, or proved *)
  n_capped : int;  (** re-opt runs that ran out of the lab's budget *)
}

val lint :
  ?queries:Query.t list -> threshold:float -> perfect_n:int -> Runner.lab ->
  counts * findings
(** Lint every query, and the plan chosen under default and perfect-(n)
    estimation; on the default plan also run the plan-robustness analyzer
    (four corner replans) and the resource certifier. Then re-optimize at
    [threshold] with the inline [Lint] check and lint every rewrite step
    and the final plan. *)

val verify :
  ?queries:Query.t list -> threshold:float -> perfect_n:int -> gen:int ->
  seed:int -> Runner.lab -> counts * findings
(** Check every chosen plan's estimates (default, perfect-(n) and
    pessimistic) against the verifier's sound cardinality bounds, prove
    every re-optimization rewrite step at [threshold] equivalent to its
    pre-step query ([n_steps] counts the proofs), and bound-check the
    default plans of [gen] generated FK-join queries seeded by [seed].
    The findings hold the data's key/FK constraint checks (context
    ["constraints"]) first, then the workload's, then the generated
    queries'. *)

type resource_row = {
  rr_query : string;
  rr_cert : Rdb_analysis.Resource.cert;  (** with the re-opt transitions *)
  rr_peak : int;       (** observed peak row-slots; 0 when capped *)
  rr_work : int;       (** observed work, or the work spent when capped *)
  rr_capped : bool;
}

val resources :
  ?budget:float -> threshold:float -> Runner.lab -> resource_row list * findings
(** Certify every default plan (with the re-opt transition simulation at
    [threshold]), execute it within the lab's budget, and report any
    observed counter outside its certified interval, any malformed
    certificate and, with [budget], any plan whose certified peak exceeds
    [budget] row-slots. *)

val fragility_thresholds : float list
(** The trigger thresholds the fragility sweep classifies: 2 to 64. *)

type at_threshold = {
  at_predicted : Sensitivity.prediction option;
  at_fragile : int;   (** plan flips the trigger would see *)
  at_blind : int;     (** plan flips below the threshold: re-opt blind spots *)
  at_robust : bool;   (** no flip and no predicted trigger *)
}

type fragile_query = {
  fq_query : string;
  fq_joins : int;
  fq_report : Sensitivity.report;
  fq_flips : Sensitivity.fragility list;
      (** joins whose envelope corner flips the plan *)
  fq_by_threshold : at_threshold list;  (** one per {!fragility_thresholds} *)
}

val fragility :
  ?queries:Query.t list -> envelope:float -> bounds:bool -> corner_limit:int ->
  Runner.lab -> fragile_query list * findings
(** Interval-analyze every default plan under the Q-error [envelope]
    (intersected with the verifier's sound bounds when [bounds]),
    corner-replanning at most the [corner_limit] widest joins per query
    (0: every join). Never executes a query. Only error findings
    (interval cost-model mismatches) are collected. *)
