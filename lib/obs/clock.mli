(** The engine's one clock: bechamel's monotonic clock
    ([CLOCK_MONOTONIC]), the same one the performance ledger reads. It
    never steps back when the wall clock is adjusted, and it counts
    elapsed time, not CPU time, so a duration measured on one domain is
    not inflated by work on the others.

    Readings are milliseconds from an arbitrary fixed origin: only the
    difference of two readings means anything. *)

val now_ms : unit -> float

val ms_since : float -> float
(** [ms_since t0] is [now_ms () -. t0]. *)
