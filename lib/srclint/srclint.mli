(** Entry point of the source-level analyzers: the fourth static-analysis
    layer (query -> plan -> sensitivity -> source). Loads [.ml] files, runs
    one analyzer — the concurrency domain ({!Lockcheck},
    [reoptdb racecheck]) or the exception-flow domain ({!Exnflow},
    [reoptdb exnflow]), both over the core {!Walk} and checked against the
    one {!Registry} — and renders one stable, deterministically sorted
    report shape for both, suitable for CI diffs. *)

type item = Walk.item = {
  file : string;
  line : int;
  finding : Rdb_analysis.Finding.t;
}

type analyzer =
  | Racecheck  (** {!Lockcheck}: the held-lock-set domain *)
  | Exnflow  (** {!Exnflow}: the escape-set domain *)

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

val analyze : ?registry:Registry.t -> analyzer -> string list -> report
(** Run one analyzer over exactly these files. [registry] defaults to
    {!Registry.default}; pass {!Registry.none} for other trees. *)

val analyze_tree :
  ?registry:Registry.t -> analyzer -> root:string -> unit -> report
(** Analyze every [.ml] under [root] (skips [_build]/[.git]). *)

val ml_files_under : string -> string list

val find_default_root : unit -> string option
(** Walk up from the cwd looking for the repo root (identified by
    [lib/util/pool.ml]); returns the [lib] directory to analyze. *)

val errors : report -> item list

val exit_code : report -> int
(** 0 clean, 1 if any error-severity finding. *)

val findings : report -> (string * Rdb_analysis.Finding.t) list
(** Each item as a (["file:line"], finding) pair, in report order. *)

val render : report -> string

val to_json : report -> Rdb_obs.Json.t
