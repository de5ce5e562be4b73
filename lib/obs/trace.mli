(** Nested timed spans over the whole pipeline (parse/bind → plan →
    re-optimization steps → execute), with a pluggable sink.

    The sink is resolved from the [RDB_TRACE] environment variable on
    first use: unset or empty disables tracing entirely (spans cost one
    mutexed read), ["stderr"] pretty-prints indented span lines, and any
    other value is a path written as JSON-lines — one object per span
    with [name], [kind], [domain], [depth], [start_ms], [dur_ms] and
    optional string [attrs]; times are milliseconds on {!Clock}, with
    [start_ms] counted from module initialisation. Emission is serialized
    process-wide; span nesting depth is tracked per domain, so the pool's
    workers trace concurrently without interleaving. *)

type sink =
  | Null
  | Stderr
  | Jsonl of out_channel

val set_sink : sink -> unit
(** Override the environment-resolved sink (tests, embedders). A
    previously installed [Jsonl] channel is closed. *)

val enabled : unit -> bool

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording a span around it (also when [f]
    raises). With the [Null] sink this is exactly [f ()]. *)

val event : ?attrs:(string * string) list -> string -> unit
(** A zero-duration point record at the current depth. *)

val flush : unit -> unit
