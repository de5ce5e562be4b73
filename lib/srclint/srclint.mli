(** Entry point of the source-level analyzers: the fourth static-analysis
    layer (query -> plan -> sensitivity -> source). Loads [.ml] files, runs
    either the concurrency analyzer ({!Lockcheck} and {!Registry},
    [reoptdb racecheck]) or the exception-flow analyzer ({!Exnflow},
    [reoptdb exnflow]), and renders one stable, deterministically sorted
    report shape for both, suitable for CI diffs. *)

type item = {
  file : string;
  line : int;
  finding : Rdb_analysis.Finding.t;
}

(** What the analyzer inventoried besides its findings. *)
type inventory =
  | Locks of {
      locks : string list;  (** qualified lock names, sorted *)
      states : int;  (** number of declared/detected shared-state names *)
      edges : (string * string) list;  (** lock acquisition-order graph *)
    }  (** racecheck *)
  | Flows of {
      resources : int;  (** tracked acquisition sites *)
      summaries : (string * Exnflow.sinfo) list;  (** ["base.fn"], sorted *)
    }  (** exnflow *)

type report = {
  files : string list;  (** analyzed paths, sorted *)
  inventory : inventory;
  items : item list;  (** findings: errors first, then file/line *)
}

val analyze_files :
  ?registry:Registry.entry list -> string list -> report
(** Concurrency analysis of exactly these files. [registry] defaults to
    {!Registry.default}; pass [~registry:[]] for synthetic trees. *)

val analyze_tree : ?registry:Registry.entry list -> root:string -> unit -> report
(** Analyze every [.ml] under [root] (skips [_build]/[.git]). *)

val analyze_exnflow_files :
  ?handlers:Exnflow.handler_entry list ->
  ?pinned:string list ->
  string list ->
  report
(** Exception-flow analysis of exactly these files. Defaults to
    {!Exnflow.default_handlers} / {!Exnflow.default_pinned}; pass
    [~handlers:[] ~pinned:[]] for synthetic trees. *)

val analyze_exnflow_tree :
  ?handlers:Exnflow.handler_entry list ->
  ?pinned:string list ->
  root:string ->
  unit ->
  report

val ml_files_under : string -> string list

val find_default_root : unit -> string option
(** Walk up from the cwd looking for the repo root (identified by
    [lib/util/pool.ml]); returns the [lib] directory to analyze. *)

val errors : report -> item list

val exit_code : report -> int
(** 0 clean, 1 if any error-severity finding. *)

val render : report -> string

val to_json : report -> Rdb_obs.Json.t
