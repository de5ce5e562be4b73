(** The held-lock-set domain of racecheck, over the shared walker {!Walk}.

    The tracked set is the qualified locks held at each point: [Mutex.lock]
    adds, [Mutex.unlock] removes, [Mutex.protect], [@with_lock] wrappers
    and [@requires] preconditions hold a lock for a closure or a body,
    [Condition.wait] must be given a held lock, and closures handed to a
    spawn head start from the empty set. With it the walker checks
    guarded-state accesses, spawn captures, blocking calls under a lock and
    [@requires] contracts, and records every acquisition edge. Callees
    contribute may-block and may-acquire summaries. The edges then form the
    global lock-order graph, checked for cycles and against the declared
    [@lock_order]. *)

type edge = { efrom : string; eto : string; efile : string; eline : int }
(** [efrom] was held at [efile:eline] when [eto] was acquired. *)

type result = {
  locks : string list;  (** every qualified lock, sorted *)
  edges : edge list;  (** the acquisition-order graph, first site wins *)
}

val check : Walk.item list ref -> Model.file list -> result
(** Adds the findings to the sink. *)
