(** The feedback sweep — a Table-V-style comparison of LEO-style
    cardinality correction against the paper's §IV-E warning.

    Two learning passes run first (the default workload, then a
    re-optimizing pass whose materializations pay for true cardinalities),
    after which the store is frozen and the workload is measured under
    {default, naive feedback, gated feedback, perfect-(n)}. Naive feedback
    serves every fresh correction — the configuration the paper shows
    picking worse plans on partially-corrected queries; gated feedback
    suppresses corrections that could move a flip-fragile join.

    The report also accounts for planning work: DPccp pair counts must be
    identical across estimation modes (enumeration is estimate-
    independent), and the number of store probes during naive planning is
    bounded by the DP work — the guard against the old eager
    every-connected-subset sweep. *)

type row = {
  fs_query : string;
  fs_rels : int;
  fs_default : Runner.measurement;
  fs_naive : Runner.measurement;
  fs_gated : Runner.measurement;
  fs_perfect : Runner.measurement;
}

type report = {
  fr_perfect_n : int;
  fr_reopt_learn : float;    (** Q-error trigger of the re-opt learning pass *)
  fr_store_size : int;       (** corrections remembered after learning *)
  fr_rows : row list;        (** one per query, workload order *)
  fr_naive_regressions : (string * float) list;
      (** queries where naive feedback is materially worse than default,
          with the work ratio *)
  fr_naive_improvements : (string * float) list;
  fr_gated_regressions : (string * float) list;
      (** must be empty: the gate's whole point *)
  fr_gated_improvements : (string * float) list;
  fr_default_pairs : int;    (** DPccp pairs planning the workload *)
  fr_naive_pairs : int;
  fr_gated_pairs : int;
  fr_naive_lookups : int;    (** store probes during naive planning *)
  fr_lookup_bound : int;     (** [2*pairs + 2*rels]: demand-driven ceiling *)
}

val material_ratio : float
val material_floor : int
(** "Materially worse" means: capped when the baseline finished, or
    [>= material_ratio] times the baseline's work with an absolute gap of
    at least [material_floor] units. *)

val materially_worse : Runner.measurement -> Runner.measurement -> bool
val work_ratio : Runner.measurement -> Runner.measurement -> float

val run : ?jobs:int -> ?perfect_n:int -> ?reopt_learn:float -> Runner.lab -> report
(** Learn, freeze, measure. [perfect_n] (default 4) sizes the perfect-(n)
    yardstick; [reopt_learn] (default 32) is the learning pass's trigger
    threshold. *)

type totals = { t_work : int; t_capped : int }
(** Work and capped cells of one mode over the whole workload. *)

type check = {
  name : string;    (** as printed: ["dp-pairs-identical"] *)
  key : string;     (** its JSON field: ["dp_pairs_identical"] *)
  ok : bool;
  detail : string;
}

type verdict = {
  v_default : totals;
  v_naive : totals;
  v_gated : totals;
  v_perfect : totals;
  v_checks : check list;
      (** in order: [dp-pairs-identical] (enumeration is
          estimate-independent), [lookups-within-demand-bound],
          [gated-never-materially-worse] and
          [naive-corrections-hurt-somewhere] (the paper's §IV-E/§V
          shape) *)
}

val verdict : report -> verdict

val passed : verdict -> bool
(** Every check holds: the sweep's exit-code contract. *)
