(* The escape-set domain over the shared walker (Walk): the error-path twin
   of Lockcheck.

   Per-function summaries {raises; handles; releases} are iterated to
   fixpoint over the name-based call graph; the walker then tracks the live
   resources through each function body, with the protected subset and the
   enclosing catch masks as its domain state, and checks that

   (1) no resource acquired in a scope (fd, channel, held mutex, pool,
       registered temp table) is live and unprotected at a point where an
       exception can escape (leak-on-raise);
   (2) nothing can escape the closure handed to a spawn head — an uncaught
       exception in a domain/thread is an abort in OCaml 5;
   (3) control exceptions are only caught at registry-pinned handler sites,
       and bare [with _ ->] swallows are annotated.

   Like Lockcheck this is purely syntactic and calibrated rather than
   complete: unknown calls are assumed non-raising, a short table of
   primitives is assumed raising, and [Fun.protect]/[Mutex.protect]/
   [@releases] are the recognized sound release shapes. Closure literals in
   argument position run during the call and are analyzed inline with the
   caller's context; bound closures run later and are analyzed as their own
   functions from a fresh context. *)

open Ppxlib
module SS = Walk.SS

(* ---- escape sets and catch masks ---- *)

(* [known] exception constructor names that may escape; [any] a raise whose
   constructor the walker cannot name ([raise e], an unknown re-raise). *)
type eset = { known : SS.t; any : bool }

let e_empty = { known = SS.empty; any = false }

let e_known names = { known = SS.of_list names; any = false }

let e_any = { known = SS.empty; any = true }

let e_union a b = { known = SS.union a.known b.known; any = a.any || b.any }

let e_is_empty e = (not e.any) && SS.is_empty e.known

let e_subset a b = SS.subset a.known b.known && (b.any || not a.any)

let e_str e =
  let l = SS.elements e.known in
  let l = if e.any then l @ [ "<unknown>" ] else l in
  match l with [] -> "nothing" | l -> String.concat ", " l

(* What one handler set catches: [m_all] for a [_]/var case, else the named
   constructors. Guarded cases ([| e when p -> ...]) may decline, so they
   contribute nothing to the mask. *)
type mask = { m_all : bool; m_named : SS.t }

let m_none = { m_all = false; m_named = SS.empty }

let apply_mask m e =
  if m.m_all then e_empty else { e with known = SS.diff e.known m.m_named }

let apply_masks masks e = List.fold_left (fun acc m -> apply_mask m acc) e masks

(* constructor names a handler pattern can catch *)
let rec pat_catches (p : pattern) : mask =
  match p.ppat_desc with
  | Ppat_any | Ppat_var _ -> { m_all = true; m_named = SS.empty }
  | Ppat_alias (p, _) | Ppat_exception p | Ppat_constraint (p, _)
  | Ppat_open (_, p) ->
    pat_catches p
  | Ppat_or (a, b) ->
    let ma = pat_catches a and mb = pat_catches b in
    { m_all = ma.m_all || mb.m_all; m_named = SS.union ma.m_named mb.m_named }
  | Ppat_construct ({ txt; _ }, _) ->
    { m_all = false; m_named = SS.singleton (Walk.lid_last txt) }
  | _ -> m_none

(* a catch-all whose top-level shape is [_]: a var at least records the
   exception for reporting; [_] cannot even do that *)
let rec pat_is_wildcard (p : pattern) =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (p, _) | Ppat_exception p | Ppat_constraint (p, _)
  | Ppat_open (_, p) ->
    pat_is_wildcard p
  | Ppat_or (a, b) -> pat_is_wildcard a || pat_is_wildcard b
  | _ -> false

let mask_of_cases cases =
  List.fold_left
    (fun acc c ->
      if c.pc_guard <> None then acc
      else
        let m = pat_catches c.pc_lhs in
        { m_all = acc.m_all || m.m_all;
          m_named = SS.union acc.m_named m.m_named })
    m_none cases

let case_line c = c.pc_lhs.ppat_loc.loc_start.pos_lnum

let is_exception_case c =
  match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false

(* does a handler body re-raise (or raise something of its own)? *)
let reraises (e : expression) =
  let found = ref false in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression x =
        (match x.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
          when Walk.is_divergent (Walk.last2 txt) ->
          found := true
        | _ -> ());
        super#expression x
    end
  in
  it#expression e;
  !found

(* ---- the raising-primitive table ---- *)

(* Unix functions modeled as raising [Unix_error]. A blanket (Unix, _)
   would drown the tree in noise from [gettimeofday]-style calls that never
   raise in practice; this is the fallible-syscall subset the repo uses. *)
let unix_raising =
  [ "socket"; "accept"; "bind"; "listen"; "connect"; "shutdown"; "close";
    "read"; "write"; "recv"; "send"; "recvfrom"; "sendto"; "select";
    "openfile"; "setsockopt"; "pipe"; "dup"; "dup2"; "waitpid"; "wait";
    "system"; "mkdir"; "unlink"; "rename"; "stat"; "lstat"; "fstat";
    "truncate"; "ftruncate" ]

let prim_raises = function
  | "Unix", f when List.mem f unix_raising -> e_known [ "Unix_error" ]
  | "Unix", "inet_addr_of_string" -> e_known [ "Failure" ]
  | ( ("" | "Stdlib"),
      ( "open_in" | "open_in_bin" | "open_in_gen" | "open_out"
      | "open_out_bin" | "open_out_gen" ) ) ->
    e_known [ "Sys_error" ]
  | ("In_channel" | "Out_channel"), ("open_bin" | "open_text" | "open_gen") ->
    e_known [ "Sys_error" ]
  | ( ("" | "Stdlib"),
      ( "input_line" | "input_char" | "input_byte" | "input_binary_int"
      | "really_input" | "really_input_string" | "input_value" ) ) ->
    e_known [ "End_of_file"; "Sys_error" ]
  | ( ("" | "Stdlib"),
      ( "output_string" | "output_char" | "output_bytes" | "output_byte"
      | "output_substring" | "output_binary_int" | "output_value" | "flush"
      | "close_in" | "close_out" | "seek_in" | "seek_out" ) )
  | "Printf", "fprintf" ->
    e_known [ "Sys_error" ]
  | ("" | "Stdlib"), "failwith" -> e_known [ "Failure" ]
  | ("" | "Stdlib"), "invalid_arg" -> e_known [ "Invalid_argument" ]
  | ("Hashtbl" | "List"), "find" | "List", "assoc" | "Sys", "getenv" ->
    e_known [ "Not_found" ]
  | "Option", "get" -> e_known [ "Invalid_argument" ]
  | _ -> e_empty

(* [raise e] / [raise (C x)] / [Printexc.raise_with_backtrace e bt] *)
let raise_arg_eset args =
  match args with
  | (_, a) :: _ -> (
    match (Walk.unconstrain a).pexp_desc with
    | Pexp_construct ({ txt; _ }, _) -> e_known [ Walk.lid_last txt ]
    | _ -> e_any)
  | [] -> e_any

(* ---- acquisition / release heads ---- *)

type rkind = Rfd | Rchan | Rlock | Rpool | Rtable

let kind_str = function
  | Rfd -> "file descriptor"
  | Rchan -> "channel"
  | Rlock -> "held lock"
  | Rpool -> "pool"
  | Rtable -> "temp table"

(* [let x = HEAD args] acquires a resource bound to [x] *)
let acq_head = function
  | "Unix", ("socket" | "accept" | "openfile") -> Some Rfd
  | ( ("" | "Stdlib"),
      ( "open_in" | "open_in_bin" | "open_in_gen" | "open_out"
      | "open_out_bin" | "open_out_gen" ) ) ->
    Some Rchan
  | ("In_channel" | "Out_channel"), ("open_bin" | "open_text" | "open_gen") ->
    Some Rchan
  | "Pool", "create" -> Some Rpool
  | _ -> None

(* [HEAD x] (or [Catalog.drop_table cat x]) releases the binding [x] *)
let rel_head = function
  | "Unix", "close" -> true
  | ( ("" | "Stdlib"),
      ("close_in" | "close_in_noerr" | "close_out" | "close_out_noerr") ) ->
    true
  | ("In_channel" | "Out_channel"), "close" -> true
  | "Pool", "shutdown" -> true
  | "Catalog", "drop_table" -> true
  | _ -> false

let ident_arg (e : expression) =
  match (Walk.unconstrain e).pexp_desc with
  | Pexp_ident { txt = Lident n; _ } -> Some n
  | _ -> None

(* the released binding of a release-head application, if trackable *)
let released_of p args =
  let arg =
    match (p, args) with
    | ("Catalog", "drop_table"), _ :: (_, re) :: _ -> Some re
    | _, (_, re) :: _ -> Some re
    | _, [] -> None
  in
  match arg with Some re -> ident_arg re | None -> None

(* held mutexes are tracked as resources named [lock:<qualified lock>] *)
let lock_id f me = Option.map (fun l -> "lock:" ^ l) (Model.lock_of f me)

let pretty_res r =
  if String.length r > 5 && String.sub r 0 5 = "lock:" then
    String.sub r 5 (String.length r - 5)
  else r

let control_exns =
  [ "Work_budget_exceeded"; "Deadline_exceeded"; "Over_budget";
    "Check_failed" ]

(* ---- interprocedural summaries: raises, handles, releases ---- *)

type summary = {
  mutable s_raises : eset;  (* may escape a call, after own handlers *)
  mutable s_handles : SS.t;  (* constructors named by its handlers *)
  mutable s_releases : SS.t;  (* caller resources it releases on all paths *)
  mutable s_calls : (Walk.key * mask list) list;
}

let fresh () =
  { s_raises = e_empty; s_handles = SS.empty; s_releases = SS.empty;
    s_calls = [] }

type sinfo = {
  si_raises : string list;
  si_any : bool;
  si_handles : string list;
  si_releases : string list;
}

(* The facts pass: one traversal per function body recording direct raises
   (filtered through the masks enclosing each site), handled constructor
   names, released resource idents, and callee mentions for the fixpoint.
   Closure arguments of spawn heads run elsewhere and are excluded; closure
   literals in plain argument position run during the call and are walked
   inline. Bound closures are their own summaries. *)
let rec facts (f : Model.file) sm masks (e : expression) =
  match e.pexp_desc with
  | Pexp_try (b, cases) ->
    facts f sm (mask_of_cases cases :: masks) b;
    List.iter
      (fun c ->
        sm.s_handles <- SS.union sm.s_handles (pat_catches c.pc_lhs).m_named;
        (match c.pc_guard with Some g -> facts f sm masks g | None -> ());
        facts f sm masks c.pc_rhs)
      cases
  | Pexp_match (s, cases) ->
    let exn_cases, val_cases = List.partition is_exception_case cases in
    facts f sm
      (if exn_cases = [] then masks else mask_of_cases exn_cases :: masks)
      s;
    List.iter
      (fun c ->
        if is_exception_case c then
          sm.s_handles <-
            SS.union sm.s_handles (pat_catches c.pc_lhs).m_named;
        (match c.pc_guard with Some g -> facts f sm masks g | None -> ());
        facts f sm masks c.pc_rhs)
      (exn_cases @ val_cases)
  | Pexp_assert _ ->
    sm.s_raises <-
      e_union sm.s_raises (apply_masks masks (e_known [ "Assert_failure" ]))
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
    let p = Walk.last2 txt in
    if Walk.is_raise_head p then
      sm.s_raises <-
        e_union sm.s_raises (apply_masks masks (raise_arg_eset args))
    else if Walk.is_spawn p then
      (* function-position arguments run on another domain *)
      List.iter
        (fun (_, a) ->
          if not (Walk.is_closure a || ident_arg a <> None) then
            facts f sm masks a)
        args
    else begin
      (match args with
      | (_, me) :: _ when p = ("Mutex", "unlock") -> (
        match lock_id f me with
        | Some l -> sm.s_releases <- SS.add l sm.s_releases
        | None -> ())
      | _ when rel_head p -> (
        match released_of p args with
        | Some n -> sm.s_releases <- SS.add n sm.s_releases
        | None -> ())
      | _ -> ());
      let pr = prim_raises p in
      if not (e_is_empty pr) then
        sm.s_raises <- e_union sm.s_raises (apply_masks masks pr)
      else if p <> ("Mutex", "unlock") && not (rel_head p) then
        sm.s_calls <- (Walk.key f.base p, masks) :: sm.s_calls;
      List.iter (fun (_, a) -> facts_arg f sm masks a) args
    end
  | Pexp_function _ ->
    (* a closure literal outside argument position (bound, stored): its
       body runs later, in an unknown context — not at this site *)
    ()
  | _ -> List.iter (facts f sm masks) (Walk.children e)

and facts_arg f sm masks a =
  if Walk.is_closure a then facts_fn f sm masks a else facts f sm masks a

(* descend through a function literal's parameter spine into its body *)
and facts_fn f sm masks (e : expression) =
  match (Walk.unconstrain e).pexp_desc with
  | Pexp_function (_, _, Pfunction_body b) -> facts_fn f sm masks b
  | Pexp_function (_, _, Pfunction_cases (cases, _, _)) ->
    List.iter (fun c -> facts f sm masks c.pc_rhs) cases
  | _ -> facts f sm masks e

let build_summaries (files : Model.file list) =
  Walk.summarize
    (List.map (fun (f : Model.file) -> (f, f.base, f.structure)) files)
    ~fresh
    ~facts:(fun (f : Model.file) name sm body ->
      facts_fn f sm [] body;
      match Hashtbl.find_opt f.funs name with
      | Some fa ->
        List.iter
          (fun r ->
            let r =
              if Hashtbl.mem f.locks r then "lock:" ^ Model.qualify f.base r
              else r
            in
            sm.s_releases <- SS.add r sm.s_releases)
          fa.Model.freleases
      | None -> ())
    ~calls:(fun sm -> sm.s_calls)
    (* a call's contribution is the callee's escape set filtered through
       the masks enclosing the call site *)
    ~grow:(fun sm masks c ->
      let contrib = apply_masks masks c.s_raises in
      let grew = not (e_subset contrib sm.s_raises) in
      if grew then sm.s_raises <- e_union sm.s_raises contrib;
      grew)

(* may-escape of a closure literal handed to a spawn head, through the
   fixpointed summaries *)
let may_escape tbl (f : Model.file) (e : expression) : eset =
  let sm = fresh () in
  facts_fn f sm [] e;
  List.fold_left
    (fun acc (key, masks) ->
      List.fold_left
        (fun acc (c : summary) -> e_union acc (apply_masks masks c.s_raises))
        acc (Hashtbl.find_all tbl key))
    sm.s_raises sm.s_calls

(* ---- the walker: tracked = live resources ---- *)

type rinfo = { rline : int; rkind : rkind }

(* prot: live resources covered by an enclosing Fun.protect/@releases
   shape; masks: the enclosing handler sets *)
type dom = { prot : SS.t; masks : mask list }

type env = dom Walk.env

type ctx = {
  cfile : Model.file;
  summaries : (Walk.key, summary) Hashtbl.t;
  allowed : SS.t;  (* control exns this file may catch *)
  sink : Walk.item list ref;
  nres : int ref;
  rtbl : (string, rinfo) Hashtbl.t;  (* live resource ident -> info *)
  reported : (string * int, unit) Hashtbl.t;
  handled : SS.t ref;  (* constructors this file's handlers name *)
}

let fresh_env shadow =
  { Walk.tracked = SS.empty; shadow; dom = { prot = SS.empty; masks = [] } }

let with_masks (env : env) masks = { env with dom = { env.dom with masks } }

(* an error finding at [line] of the file being walked *)
let err ctx line = Walk.emit ctx.sink ctx.cfile.Model.path line `E

(* An exception can escape at [line] carrying [es]: every live, unprotected
   resource leaks. Reported once, at the acquisition site, so a single
   @cleanup_ok there covers all raise points of the scope. *)
let leak_check ctx (env : env) line es =
  let esc = apply_masks env.dom.masks es in
  if not (e_is_empty esc) then
    SS.iter
      (fun r ->
        if not (SS.mem r env.dom.prot) then
          match Hashtbl.find_opt ctx.rtbl r with
          | None -> ()
          | Some info ->
            if
              (not (Model.suppressed ctx.cfile Model.Cleanup_ok info.rline))
              && not (Hashtbl.mem ctx.reported (r, info.rline))
            then begin
              Hashtbl.replace ctx.reported (r, info.rline) ();
              err ctx info.rline "src-exn-leak"
                "%s %s acquired here may leak: %s can escape at line %d \
                 before it is released (use Fun.protect/Mutex.protect, \
                 release in every handler, or annotate @cleanup_ok)"
                (kind_str info.rkind) (pretty_res r) (e_str esc) line
            end)
      env.tracked

let acquire ctx (env : env) name kind line =
  incr ctx.nres;
  Hashtbl.replace ctx.rtbl name { rline = line; rkind = kind };
  { env with tracked = SS.add name env.tracked }

let release (env : env) name = { env with tracked = SS.remove name env.tracked }

(* handler-discipline checks for one try/match-exception case *)
let case_checks ctx c =
  let line = case_line c in
  let m = pat_catches c.pc_lhs in
  ctx.handled := SS.union !(ctx.handled) m.m_named;
  SS.iter
    (fun name ->
      if List.mem name control_exns && not (SS.mem name ctx.allowed) then
        err ctx line "src-control-exn-handler"
          "control exception %s caught outside its registry-pinned handler \
           sites (it must reach the designated layer to keep abort \
           semantics observable)"
          name)
    m.m_named;
  if
    pat_is_wildcard c.pc_lhs
    && c.pc_guard = None
    && (not (reraises c.pc_rhs))
    && not (Model.suppressed ctx.cfile Model.Swallow_ok line)
  then
    err ctx line "src-bare-swallow"
      "catch-all [_] swallows every exception (including control \
       exceptions); name the expected ones, re-raise, or annotate \
       @swallow_ok"

(* releases performed by a [~finally] argument (a literal closure is
   scanned for release heads; a named local function contributes its
   summary, which includes any @releases annotation) *)
let finally_releases ctx fin =
  let local_releases n =
    match Hashtbl.find_opt ctx.summaries (ctx.cfile.Model.base, n) with
    | Some sm -> sm.s_releases
    | None -> SS.empty
  in
  match ident_arg fin with
  | Some n -> local_releases n
  | None ->
    let acc = ref SS.empty in
    let it =
      object
        inherit Ast_traverse.iter as super

        method! expression x =
          (match x.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
            let p = Walk.last2 txt in
            match args with
            | (_, me) :: _ when p = ("Mutex", "unlock") -> (
              match lock_id ctx.cfile me with
              | Some l -> acc := SS.add l !acc
              | None -> ())
            | _ when rel_head p -> (
              match released_of p args with
              | Some n -> acc := SS.add n !acc
              | None -> ())
            | _ -> (
              (* calling a local helper releases what it releases *)
              match p with
              | "", n -> acc := SS.union !acc (local_releases n)
              | _ -> ()))
          | _ -> ());
          super#expression x
      end
    in
    it#expression fin;
    !acc

let rec walk ctx (env : env) (e : expression) : env =
  let line = e.pexp_loc.loc_start.pos_lnum in
  match e.pexp_desc with
  | Pexp_let (_, vbs, body) ->
    let env =
      List.fold_left
        (fun acc vb ->
          let rhs = Walk.unconstrain vb.pvb_expr in
          match (Walk.pat_name vb.pvb_pat, rhs.pexp_desc) with
          | ( Some n,
              Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) )
            when acq_head (Walk.last2 txt) <> None ->
            let kind =
              match acq_head (Walk.last2 txt) with Some k -> k | None -> Rfd
            in
            let acc =
              List.fold_left (fun a (_, x) -> walk_arg ctx a x) acc args
            in
            acquire ctx acc n kind rhs.pexp_loc.loc_start.pos_lnum
          | _, Pexp_function _ ->
            (* bound closure: analyzed as its own function by walk_file *)
            acc
          | _ -> walk ctx acc vb.pvb_expr)
        env vbs
    in
    Walk.let_body ~walk:(walk ctx) env vbs body
  | Pexp_match (s, cases) ->
    let exn_cases = List.filter is_exception_case cases in
    let env0 =
      walk ctx
        (if exn_cases = [] then env
         else with_masks env (mask_of_cases exn_cases :: env.dom.masks))
        s
    in
    let env0 = with_masks env0 env.dom.masks in
    List.iter (case_checks ctx) exn_cases;
    (* a scrutinee that is an acquisition head binds its resource in the
       value cases: [match Unix.accept l with fd, _ -> ...] *)
    let acq =
      match (Walk.unconstrain s).pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
        acq_head (Walk.last2 txt)
      | _ -> None
    in
    let entry c =
      if is_exception_case c then env
      else
        match (acq, SS.min_elt_opt (Walk.pat_vars c.pc_lhs)) with
        | Some k, Some v -> acquire ctx env0 v k (case_line c)
        | _ -> env0
    in
    Walk.join env0
      (List.filter_map (fun c -> Walk.case ~walk:(walk ctx) (entry c) c) cases)
  | Pexp_try (b, cases) ->
    let envb =
      walk ctx (with_masks env (mask_of_cases cases :: env.dom.masks)) b
    in
    List.iter (case_checks ctx) cases;
    (* handlers run with the environment at try entry: a resource acquired
       and leaked inside the body is already reported at its raise site *)
    Walk.join_try ~walk:(walk ctx) env envb cases
  | Pexp_assert _ ->
    leak_check ctx env line (e_known [ "Assert_failure" ]);
    env
  | Pexp_function _ ->
    (* stray closure literal (stored in a record, returned): its body runs
       later, from a fresh context *)
    walk_fn ctx (fresh_env env.shadow) e;
    env
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
    apply ctx env ~line txt args
  | _ -> Walk.step ~walk:(walk ctx) env e

and walk_arg ctx env a = Walk.arg ~walk:(walk ctx) env a

and walk_fn ctx env e = Walk.fn ~walk:(walk ctx) env e

and apply ctx (env : env) ~line txt args =
  let walk_args env =
    List.fold_left (fun acc (_, a) -> walk_arg ctx acc a) env args
  in
  let p = Walk.last2 txt in
  match (p, args) with
  | ("Mutex", "lock"), (_, me) :: _ -> (
    let env = walk_args env in
    match lock_id ctx.cfile me with
    | None -> env
    | Some l -> acquire ctx env l Rlock line)
  | ("Mutex", "unlock"), (_, me) :: _ -> (
    let env = walk_args env in
    match lock_id ctx.cfile me with
    | None -> env
    | Some l -> release env l)
  | ("Mutex", "protect"), (_, me) :: rest ->
    (* sound shape: the lock is released on every exit, raising or not *)
    let env = walk ctx env me in
    List.fold_left (fun acc (_, a) -> walk_arg ctx acc a) env rest
  | ("Fun", "protect"), _ ->
    let fin =
      List.find_map
        (fun (lbl, a) ->
          match lbl with Labelled "finally" -> Some a | _ -> None)
        args
    in
    let rel =
      match fin with Some f -> finally_releases ctx f | None -> SS.empty
    in
    (match fin with Some f -> ignore (walk_arg ctx env f) | None -> ());
    let inner =
      { env with dom = { env.dom with prot = SS.union env.dom.prot rel } }
    in
    List.iter
      (fun (lbl, a) ->
        match lbl with Nolabel -> ignore (walk_arg ctx inner a) | _ -> ())
      args;
    { env with tracked = SS.diff env.tracked rel }
  | p, _ when Walk.is_spawn p ->
    (* nothing may escape the spawned closure *)
    List.iter
      (fun (_, a) ->
        let es =
          if Walk.is_closure a then may_escape ctx.summaries ctx.cfile a
          else
            match ident_arg a with
            | Some n -> (
              match
                Hashtbl.find_opt ctx.summaries (ctx.cfile.Model.base, n)
              with
              | Some sm -> sm.s_raises
              | None -> e_empty)
            | None -> e_empty
        in
        if
          (not (e_is_empty es))
          && not (Model.suppressed ctx.cfile Model.Swallow_ok line)
        then
          err ctx line "src-spawn-escape"
            "%s.%s closure may raise %s uncaught: an escaping exception \
             aborts the domain/thread (catch inside the closure, or \
             annotate @swallow_ok where the head records it)"
            (fst p) (snd p) (e_str es);
        (* leaks inside the closure are checked from a fresh context *)
        if Walk.is_closure a then walk_fn ctx (fresh_env env.shadow) a)
      args;
    List.fold_left
      (fun acc (_, a) ->
        if Walk.is_closure a || ident_arg a <> None then acc
        else walk ctx acc a)
      env args
  | _ ->
    let env = walk_args env in
    (* direct release by head *)
    let env =
      if rel_head p then
        match released_of p args with
        | Some n -> release env n
        | None -> env
      else env
    in
    let sums = Walk.summaries_of ctx.summaries ctx.cfile.Model.base txt in
    (* releases by callee summary are optimistic: a releasing callee is
       assumed to release on its raising paths too (that is what @releases
       asserts; [Pool.await] genuinely does) *)
    let srel =
      List.fold_left (fun acc s -> SS.union acc s.s_releases) SS.empty sums
    in
    let env = { env with tracked = SS.diff env.tracked srel } in
    (* temp-table registration: [Catalog.add_table cat t] makes [t] live *)
    let env =
      match (p, args) with
      | ("Catalog", "add_table"), _ :: (_, te) :: _ -> (
        match ident_arg te with
        | Some n -> acquire ctx env n Rtable line
        | None -> env)
      | _ -> env
    in
    let es =
      List.fold_left
        (fun acc s -> e_union acc s.s_raises)
        (prim_raises p) sums
    in
    let es =
      if Walk.is_raise_head p then e_union es (raise_arg_eset args) else es
    in
    if not (e_is_empty es) then leak_check ctx env line es;
    env

let walk_file ctx =
  List.iter
    (fun (_name, body) ->
      Hashtbl.reset ctx.rtbl;
      walk_fn ctx (fresh_env SS.empty) body)
    (Walk.bindings_of ctx.cfile.Model.structure)

(* ---- entry point ---- *)

type result = { summaries : (string * sinfo) list; resources : int }

let check (handlers : Registry.handler list) sink (files : Model.file list) =
  let summaries = build_summaries files in
  let nres = ref 0 in
  let handled_tbl : (string, SS.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (f : Model.file) ->
      let allowed =
        List.fold_left
          (fun acc (h : Registry.handler) ->
            if Registry.matches h.hsuffix f.path then
              SS.union acc (SS.of_list h.hexns)
            else acc)
          SS.empty handlers
      in
      let handled = ref SS.empty in
      walk_file
        { cfile = f; summaries; allowed; sink; nres; rtbl = Hashtbl.create 8;
          reported = Hashtbl.create 8; handled };
      Hashtbl.replace handled_tbl f.path !handled)
    files;
  (* a registered handler entry that no longer catches its exception is
     stale: the abort would sail past the layer the registry promises *)
  List.iter
    (fun (h : Registry.handler) ->
      Hashtbl.iter
        (fun path handled ->
          if Registry.matches h.hsuffix path then
            List.iter
              (fun x ->
                if not (SS.mem x handled) then
                  Walk.emit sink path 0 `W "src-stale-handler"
                    "registry expects %s to be caught in %s but no handler \
                     names it"
                    x h.hsuffix)
              h.hexns)
        handled_tbl)
    handlers;
  let sinfos =
    Hashtbl.fold
      (fun (base, name) sm acc ->
        ( base ^ "." ^ name,
          { si_raises = SS.elements sm.s_raises.known;
            si_any = sm.s_raises.any;
            si_handles = SS.elements sm.s_handles;
            si_releases = SS.elements sm.s_releases } )
        :: acc)
      summaries []
    |> List.sort compare
  in
  { summaries = sinfos; resources = !nres }
