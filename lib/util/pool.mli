(** A small pool of OCaml 5 domains sharing one FIFO task queue.

    Built for the experiment runner's coarse-grained tasks (one task = one
    query planned and executed, milliseconds to seconds each): an idle
    worker takes the oldest queued task, so tasks start in submission
    order. The queue hangs off one pool lock — contention is irrelevant at
    this granularity and the single lock keeps the sleeping/waking
    protocol obviously correct.

    A pool of [jobs = 1] spawns no domains at all: tasks run inline on the
    submitting domain, in submission order, so a 1-job pool is
    observationally identical to direct execution (the invariant
    [test_pool.ml] pins down and the runner's determinism tests build on).

    Tasks must not submit to their own pool and then [await] the result —
    with every worker blocked in [await] the pool would deadlock. The
    experiment runner never nests. *)

type t

val create : int -> t
(** [create jobs] starts a pool of [jobs] workers. [jobs >= 1] or
    [Invalid_argument]. [jobs = 1] runs everything inline. *)

val jobs : t -> int

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs 0] resolves to. *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task. Raises [Invalid_argument] after {!shutdown}. *)

val await : 'a future -> 'a
(** Block until the task finishes. An exception raised by the task is
    re-raised here, in the submitter, with the worker's backtrace. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Fork-join: submit one task per element, await them all. Results come
    back in input order regardless of which worker ran what and when; if
    several tasks failed, the lowest-index exception is re-raised. *)

val run : t -> (unit -> 'a) list -> 'a list
(** List flavour of {!map}. *)

val shutdown : t -> unit
(** Drain every queued task, then join the worker domains. Idempotent and
    thread-safe: concurrent calls race benignly — exactly one caller joins
    each worker — and a worker that died of an internal error never
    prevents shutdown from completing (its exception is swallowed; task
    exceptions always travel through their futures instead). *)

val with_pool : int -> (t -> 'a) -> 'a
(** [create] / run / [shutdown], exception-safe. *)
