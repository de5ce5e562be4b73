(** The source-analysis core shared by {!Lockcheck} (racecheck) and
    {!Exnflow} (exnflow): parsetree helpers, the binding enumerator, one
    name-based summary fixpoint, the walker skeleton with its branch-join
    rule, and the finding sink. Each analyzer supplies only its abstract
    domain: the set it tracks, its summary facts and its special arms. *)

open Ppxlib
module SS : Set.S with type elt = string

(** {1 Syntax helpers} *)

val lid_last : longident -> string
val last2 : longident -> string * string
(** Last module component and value name: [Rdb_util.Pool.submit] is
    [("Pool", "submit")], a bare [f] is [("", "f")]. *)

val unconstrain : expression -> expression
val is_closure : expression -> bool
val pat_name : pattern -> string option
val pat_vars : pattern -> SS.t
val children : expression -> expression list
(** Depth-1 child expressions. *)

val is_spawn : string * string -> bool
(** Heads that run a closure argument on another domain/thread:
    [Domain.spawn], [Thread.create], [Pool.submit/map/run]. *)

val is_divergent : string * string -> bool
(** Heads that never return: [raise], [failwith], [invalid_arg] & co. *)

val is_raise_head : string * string -> bool
(** The divergent heads whose argument is the escaping exception. *)

(** {1 Bindings and summaries} *)

type key = string * string
(** (file base, binding name) *)

val key : string -> string * string -> key
(** [key base (m, f)] resolves a callee mentioned in file [base]. *)

val summaries_of : (key, 's) Hashtbl.t -> string -> longident -> 's list

val bindings_of : structure -> (string * expression) list
(** Toplevel named bindings and local closure bindings, in source order. *)

val summarize :
  ('f * string * structure) list ->
  fresh:(unit -> 's) ->
  facts:('f -> string -> 's -> expression -> unit) ->
  calls:('s -> (key * 'site) list) ->
  grow:('s -> 'site -> 's -> bool) ->
  (key, 's) Hashtbl.t
(** One summary per [(base, name)] over every binding of every
    [(file, base, structure)], filled by [facts], then grown to a fixpoint:
    [grow sm site c] folds callee [c], called from [sm] at [site], into
    [sm] and says whether [sm] changed. *)

(** {1 The walker skeleton} *)

type 'd env = { tracked : SS.t; shadow : SS.t; dom : 'd }
(** [tracked] is the domain's set (held locks, live resources), joined
    across branches; [shadow] the names rebound by enclosing patterns;
    [dom] the rest of the domain's state. *)

val join : 'd env -> 'd env list -> 'd env
(** The one branch-join rule: [base] tracking the intersection of the given
    non-diverging exits ([base] itself when there are none). *)

val case :
  walk:('d env -> expression -> 'd env) ->
  'd env -> case -> 'd env option
(** A case arm: pattern shadowed, guard then body; [None] if it diverges. *)

val join_try :
  walk:('d env -> expression -> 'd env) ->
  'd env -> 'd env -> case list -> 'd env
(** [join_try ~walk entry body_exit handlers]: handlers run from the
    try-entry env; the body exit counts as one exit of the join. *)

val let_body :
  walk:('d env -> expression -> 'd env) ->
  'd env -> value_binding list -> expression -> 'd env
(** Walk a [let] body with the bound names shadowed. *)

val fn : walk:('d env -> expression -> 'd env) -> 'd env -> expression -> unit
(** Walk a function literal's body (through nested literals and case
    forms) with its parameters shadowed. *)

val arg :
  walk:('d env -> expression -> 'd env) -> 'd env -> expression -> 'd env
(** An argument: a closure literal runs during the call, from this env. *)

val step :
  walk:('d env -> expression -> 'd env) -> 'd env -> expression -> 'd env
(** The arms every domain shares: sequence, [if], [while], [for], function
    literals, non-identifier application, and the children fallback. *)

(** {1 Findings} *)

type item = { file : string; line : int; finding : Rdb_analysis.Finding.t }

val emit :
  item list ref -> string -> int -> [ `E | `W ] -> string ->
  ('a, unit, string, unit) format4 -> 'a
(** [emit sink file line sev code fmt ...] adds one finding. *)
