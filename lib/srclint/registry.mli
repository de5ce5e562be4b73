(** The checked registry of the serving stack, one record for both
    analyzers. racecheck checks its shared-state entries: every entry's file
    must exist in the analyzed tree, every listed state must be declared
    there, and every auto-detected state in a registered file must carry a
    [@guarded_by]/[@confined] annotation — so new shared state cannot be
    added to these files without declaring its discipline. exnflow checks
    its designated control-exception handlers and its pinned files. *)

type entry = { suffix : string; required : string list }
(** [suffix] matches the end of an analyzed path ([util/pool.ml]). *)

type handler = { hsuffix : string; hexns : string list }
(** [hexns] may only be caught in files whose path ends with [hsuffix]. *)

type t = {
  states : entry list;  (** racecheck: known shared state *)
  handlers : handler list;  (** exnflow: designated handler sites *)
  pinned : string list;  (** exnflow: files that must be analyzed *)
}

val default : t
(** This repository's serving stack: pool, plan_cache, service, frontend,
    metrics, trace, runner; the harness's budget handlers. *)

val none : t
(** The empty registry, for trees other than this repository's [lib/]. *)

val matches : string -> string -> bool
(** [matches suffix path], with [\\] read as [/]. *)

val check_states : t -> Walk.item list ref -> Model.file list -> unit
(** racecheck's registry findings. *)

val check_files : t -> Walk.item list ref -> Model.file list -> unit
(** exnflow's registry findings: missing pinned and handler files. *)
