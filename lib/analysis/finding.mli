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
