(** The escape-set domain of exnflow, over the shared walker {!Walk}: the
    error-path twin of {!Lockcheck}.

    Summaries record which exception constructors may escape a function
    (after its own handlers' catch masks), which its handlers name, and
    which caller resources it releases. The tracked set is the live
    resources (fds, channels, held mutexes, pools, temp tables), with the
    subset protected by [Fun.protect]/[@releases] and the enclosing catch
    masks as domain state. The walker checks leak-on-raise, that nothing
    escapes a spawned closure, and handler discipline: control exceptions
    ([Work_budget_exceeded], [Deadline_exceeded], [Over_budget],
    [Check_failed]) are caught only at {!Registry} handler sites, and bare
    [with _ ->] swallows are annotated.

    Calibration: unknown calls are assumed non-raising, a short primitive
    table is assumed raising, and [Fun.protect]/[Mutex.protect]/[@releases]
    are the recognized sound release shapes. *)

type sinfo = {
  si_raises : string list;  (** named constructors that may escape *)
  si_any : bool;  (** may also raise something unnamed *)
  si_handles : string list;  (** constructors named by its handlers *)
  si_releases : string list;  (** caller resources released on all paths *)
}

type result = {
  summaries : (string * sinfo) list;  (** ["base.fn"] -> summary, sorted *)
  resources : int;  (** tracked acquisition sites *)
}

val check :
  Registry.handler list -> Walk.item list ref -> Model.file list -> result
(** Adds the findings to the sink, with the given designated handlers. *)
