(** Per-file concurrency model extracted from the parsetree + annotations:
    which names are locks, which are shared state (and under which guard),
    which functions carry lock contracts, and where suppressions apply. *)

type guard =
  | Guarded of string  (** qualified lock name, e.g. [pool.mu] *)
  | Confined  (** domain-local / single-owner; no lock needed *)
  | Unannotated  (** auto-detected shared state with no annotation yet *)

type skind = Field | Top | Local

type state = {
  sname : string;
  skind : skind;
  sline : int;
  mutable sguard : guard;
}

type lock = { lshort : string; lline : int }

type fannot = {
  floc : int;
  mutable frequires : string list;  (** qualified *)
  mutable facquires : string list;  (** qualified *)
  mutable fwith_lock : string list;  (** qualified *)
  mutable freleases : string list;  (** raw: resource idents or lock names *)
}

(** The suppression directives, each covering its own and the next line. *)
type waiver = Race_ok | Cleanup_ok | Swallow_ok

type issue = { iline : int; itext : string; isev : [ `Error | `Warning ] }

type file = {
  path : string;  (** as passed to [load] *)
  base : string;  (** lowercased module basename, used to qualify locks *)
  structure : Ppxlib.structure;  (** empty when [parse_error] is set *)
  locks : (string, lock) Hashtbl.t;  (** short name -> lock *)
  states : (string, state) Hashtbl.t;
  funs : (string, fannot) Hashtbl.t;
  waivers : (waiver * int, unit) Hashtbl.t;  (** (directive, line) *)
  orders : (string * string * int) list;  (** qualified a-before-b + line *)
  issues : issue list;  (** bad/dangling annotations *)
  parse_error : string option;
}

val qualify : string -> string -> string
(** [qualify base name] is [name] if already dotted, else [base.name]. *)

val load : string -> file
(** Parse a file on disk and extract; never raises on a syntax error (it
    lands in [parse_error]). *)

val suppressed : file -> waiver -> int -> bool
(** Is line [n] covered by waiver [w] on the same or previous line? *)

val lock_of : file -> Ppxlib.expression -> string option
(** The qualified lock a [mu] / [t.mu] expression names, if it is one of
    this file's locks. *)
