(** The experiment runner: one "lab" holds the generated database, the 113
    bound queries, and caches — per-query prepared contexts (oracle +
    search space) and per-(configuration, query) measurements — so the
    experiment suite never repeats work across figures. *)

module Query := Rdb_query.Query
module Session := Rdb_core.Session

type lab

val create_lab :
  ?feedback:Rdb_core.Feedback.t -> ?seed:int -> ?scale:float ->
  ?work_budget:int -> ?deadline_ms:float -> unit -> lab
(** Generate the database (default scale 1.0, seed 42), ANALYZE it, and
    bind the workload. [work_budget] (default [60_000_000] work units) and
    [deadline_ms] (default 4s) cap catastrophic plan executions. The lab's
    session carries [feedback] (default: a fresh store), so every executed
    cell contributes true cardinalities the feedback configurations can
    plan from. *)

val session : lab -> Session.t
val queries : lab -> Query.t list
val query : lab -> string -> Query.t
val prepared_of : lab -> Query.t -> Session.prepared
val scale : lab -> float

val work_budget : lab -> int
val deadline_ms : lab -> float
(** The lab's caps on one execution, as given to {!create_lab}. *)

val feedback : lab -> Rdb_core.Feedback.t
(** The lab session's feedback store. *)

type config =
  | Default                        (** PostgreSQL-style estimates *)
  | Perfect of int                 (** the paper's perfect-(n) *)
  | Perfect_all                    (** perfect-(17): every estimate true *)
  | Reopt of float                 (** re-optimization at a Q-error threshold *)
  | Perfect_reopt of int * float   (** perfect-(n) plus re-optimization *)
  | Sampling_est of int            (** index-based join sampling, given sample size *)
  | Robust of float                (** Rio-style worst-case planning, given uncertainty *)
  | Adaptive                       (** runtime operator switching (Cuttlefish-style) *)
  | Feedback_naive                 (** every fresh feedback correction served (LEO) *)
  | Feedback_gated                 (** corrections gated by fragility analysis *)

val config_name : config -> string

val config_of_name : string -> config option
(** The inverse of {!config_name} on the configurations that only choose
    an estimation mode — [default], [perfect-N] (N >= 1), [perfect-all],
    [feedback-naive], [feedback-gated] — plus the short spellings
    [perfect] (perfect-all) and [feedback] (feedback-naive);
    case-insensitive. [None] for anything else. *)

val mode_of_config : lab -> Query.t -> config -> Rdb_card.Estimator.mode
(** The estimation mode a configuration plans [q] under, filling the
    query's oracle up to [n] relations for perfect-(n). *)

type measurement = {
  m_query : string;
  m_rels : int;          (** relations in the query *)
  m_plan_ms : float;     (** planning incl. re-planning *)
  m_exec_ms : float;     (** execution incl. temp-table materialization *)
  m_work : int;          (** deterministic work units *)
  m_capped : bool;       (** work budget ran out (runaway plan) *)
  m_steps : int;         (** re-optimization steps taken *)
}

val run_query : lab -> config -> Query.t -> measurement
(** Plan and execute one query under a configuration; cached. A
    {!Rdb_exec.Executor.Work_budget_exceeded} anywhere inside the cell is
    caught and recorded as [m_capped = true] — one runaway cell never
    aborts a sweep. *)

val run_workload : lab -> config -> measurement list
(** All 113 queries (cached per query). *)

val run_grid :
  ?jobs:int -> ?queries:Query.t list -> lab -> config list ->
  (config * measurement list) list
(** Evaluate every (config, query) cell — [queries] defaults to the whole
    workload — sharding the cells across [jobs] domains (default 1 =
    sequential, in the caller). Each worker domain drives a private lab
    cloned via {!Rdb_core.Session.with_stats_of} (shared immutable tables
    and statistics, private temp-table namespace and caches); results are
    merged into the parent lab's measurement cache keyed by
    (config, query), and returned in [configs] × [queries] order. All
    deterministic measurement fields ([m_work], [m_capped], [m_steps],
    [m_rels]) are byte-identical to the sequential run regardless of
    worker count or scheduling; only the wall-clock fields vary. *)

val total_exec_ms : measurement list -> float
val total_plan_ms : measurement list -> float
