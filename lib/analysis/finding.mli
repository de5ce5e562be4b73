(** Severity-tagged findings reported by the static-analysis passes
    ({!Query_lint}, {!Plan_lint}). A finding carries a stable machine-readable
    [code] so tests can assert that a specific corruption class is detected,
    and a human-readable message naming the offending aliases/columns. *)

type severity =
  | Info
  | Warning  (** well-formed but suspicious: duplicate or contradictory
                 predicates, always-empty ranges *)
  | Error    (** an invariant violation that can produce wrong answers:
                 dangling aliases, type mismatches, stale estimates,
                 corrupted plan structure *)

type t = { severity : severity; code : string; message : string }

val info : code:string -> string -> t
val warning : code:string -> string -> t
val error : code:string -> string -> t

val severity_name : severity -> string

val rank : t -> int
(** Report order of a finding's severity: errors 0, warnings 1, info 2. *)

val errors : t list -> t list
(** Only the error-severity findings. *)

val has_errors : t list -> bool

val by_code : string -> t list -> t list
(** Findings with the given code. *)

val to_string : t -> string
(** ["error[stale-estimate]: ..."]. *)

val render : t list -> string
(** One finding per line. *)

val pp : Format.formatter -> t -> unit

(** {2 Collecting findings across a sweep}

    The analysis sweeps report every finding under a context — a query
    name, optionally followed by a space and a bracketed configuration
    label, or a ["file:line"] source site. *)

val add : (string * t) list ref -> string -> t list -> unit
(** [add acc ctx fs] records each of [fs] under [ctx]; [acc] holds the
    pairs newest first. *)

type summary = {
  lines : string;   (** one ["ctx: finding\n"] line per shown finding *)
  errors : int;
  warnings : int;
}

val summarize :
  ?key:(string -> string) -> ?shown:(t -> bool) -> (string * t) list ->
  summary
(** Render (context, finding) pairs given in collection order and count
    their errors and warnings. With [key], a finding already seen under
    the same [key ctx] is dropped and the rest are sorted errors first,
    then by context and text, so output diffs cleanly across runs; without
    it they keep collection order. [shown] filters what is rendered, not
    what is counted. *)

val exit_code : summary -> int
(** The analysis commands' contract: 1 when any error was counted, else 0. *)
