(* Extract the concurrency-relevant model of one source file: lock
   declarations, shared-state declarations (auto-detected + annotated),
   function lock contracts, @race_ok lines and @lock_order edges. Purely
   syntactic — no type checking — so it stays robust across the tree. *)

module Directive = Annot
open Ppxlib

type guard = Guarded of string | Confined | Unannotated

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
  mutable frequires : string list;
  mutable facquires : string list;
  mutable fwith_lock : string list;
  mutable freleases : string list;
}

type waiver = Race_ok | Cleanup_ok | Swallow_ok

type issue = { iline : int; itext : string; isev : [ `Error | `Warning ] }

type file = {
  path : string;
  base : string;
  structure : structure;
  locks : (string, lock) Hashtbl.t;
  states : (string, state) Hashtbl.t;
  funs : (string, fannot) Hashtbl.t;
  waivers : (waiver * int, unit) Hashtbl.t;
  orders : (string * string * int) list;
  issues : issue list;
  parse_error : string option;
}

let qualify base name = if String.contains name '.' then name else base ^ "." ^ name

let rec lid_str = function
  | Lident s -> s
  | Ldot (l, s) -> lid_str l ^ "." ^ s
  | Lapply (a, _) -> lid_str a

(* Containers whose contents are shared mutable state even without
   [mutable]: a field holding one of these is auto-detected. *)
let container_suffixes =
  [ "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t"; "Bytes.t" ]

let container_heads = [ "ref"; "array"; "bytes" ]

type tyclass = Tmutex | Texempt | Tcontainer | Tother

let classify_type (ct : core_type) =
  match ct.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) ->
    let full = lid_str txt and last = Walk.lid_last txt in
    if String.ends_with ~suffix:"Mutex.t" full then Tmutex
    else if
      String.ends_with ~suffix:"Atomic.t" full
      || String.ends_with ~suffix:"Condition.t" full
      || String.ends_with ~suffix:"Semaphore.Counting.t" full
      || String.ends_with ~suffix:"Semaphore.Binary.t" full
    then Texempt
    else if
      List.exists (fun s -> String.ends_with ~suffix:s full) container_suffixes
      || List.mem last container_heads
    then Tcontainer
    else Tother
  | _ -> Tother

(* ---- declaration sites (annotation attachment targets) ---- *)

type decl = {
  dname : string;
  dline : int;
  dstate : skind option;  (* None: cannot carry @guarded_by *)
  dauto : bool;  (* auto-detected shared state *)
  dfun : bool;  (* can carry @requires/@acquires/@with_lock *)
}

type bindclass = Bmutex | Bref | Bplain

let classify_bind (e : expression) =
  match (Walk.unconstrain e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    let full = lid_str txt in
    if String.ends_with ~suffix:"Mutex.create" full then Bmutex
    else if full = "ref" || String.ends_with ~suffix:"Stdlib.ref" full then Bref
    else Bplain
  | _ -> Bplain

(* ---- extraction ---- *)

let of_source ~path src =
  let base =
    String.lowercase_ascii (Filename.remove_extension (Filename.basename path))
  in
  let locks = Hashtbl.create 8 in
  let states = Hashtbl.create 16 in
  let funs = Hashtbl.create 8 in
  let waivers = Hashtbl.create 4 in
  let orders = ref [] in
  let issues = ref [] in
  let issue sev line fmt =
    Printf.ksprintf
      (fun s -> issues := { iline = line; itext = s; isev = sev } :: !issues)
      fmt
  in
  let dirs, derrs = Directive.scan src in
  List.iter
    (fun (e : Directive.error) -> issue `Error e.eline "%s" e.etext)
    derrs;
  let structure, parse_error =
    let lexbuf = Lexing.from_string src in
    Lexing.set_filename lexbuf path;
    match Parse.implementation lexbuf with
    | str -> (str, None)
    | exception e -> ([], Some (Printexc.to_string e))
  in
  let decls : (int, decl) Hashtbl.t = Hashtbl.create 32 in
  let add_decl d = Hashtbl.add decls d.dline d in
  let add_lock name line =
    if not (Hashtbl.mem locks name) then
      Hashtbl.replace locks name { lshort = name; lline = line }
  in
  let add_auto_state name kind line =
    if not (Hashtbl.mem states name) then
      Hashtbl.replace states name
        { sname = name; skind = kind; sline = line; sguard = Unannotated }
  in
  let add_bind ~top (vb : value_binding) =
    match Walk.pat_name vb.pvb_pat with
    | None -> ()
    | Some name ->
      let line = vb.pvb_loc.loc_start.pos_lnum in
      let kind = if top then Top else Local in
      (match classify_bind vb.pvb_expr with
      | Bmutex -> add_lock name line
      | Bref ->
        if top then add_auto_state name Top line;
        add_decl
          { dname = name; dline = line; dstate = Some kind; dauto = top;
            dfun = true }
      | Bplain ->
        add_decl
          { dname = name; dline = line; dstate = Some kind; dauto = false;
            dfun = true })
  in
  let add_field (ld : label_declaration) =
    let name = ld.pld_name.txt in
    let line = ld.pld_loc.loc_start.pos_lnum in
    match classify_type ld.pld_type with
    | Tmutex -> add_lock name line
    | Texempt -> ()
    | Tcontainer ->
      add_auto_state name Field line;
      add_decl
        { dname = name; dline = line; dstate = Some Field; dauto = true;
          dfun = false }
    | Tother ->
      let auto = ld.pld_mutable = Mutable in
      if auto then add_auto_state name Field line;
      add_decl
        { dname = name; dline = line; dstate = Some Field; dauto = auto;
          dfun = false }
  in
  let rec add_item (it : structure_item) =
    match it.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter (add_bind ~top:true) vbs
    | Pstr_type (_, tds) ->
      List.iter
        (fun td ->
          match td.ptype_kind with
          | Ptype_record lds -> List.iter add_field lds
          | _ -> ())
        tds
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
      List.iter add_item sub
    | _ -> ()
  in
  List.iter add_item structure;
  (* local bindings (nested lets): locks and annotatable decls *)
  let local_collect =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_let (_, vbs, _) -> List.iter (add_bind ~top:false) vbs
        | _ -> ());
        super#expression e
    end
  in
  local_collect#structure structure;
  (* ---- attach directives ---- *)
  let find_decl line pred =
    match List.find_opt pred (Hashtbl.find_all decls line) with
    | Some d -> Some d
    | None -> List.find_opt pred (Hashtbl.find_all decls (line + 1))
  in
  let attach_state line guard label =
    match find_decl line (fun d -> d.dstate <> None) with
    | None -> issue `Warning line "dangling %s: no state declaration here" label
    | Some d -> (
      match Hashtbl.find_opt states d.dname with
      | Some st ->
        if st.sguard <> Unannotated then
          issue `Error line "state %s annotated twice" d.dname
        else st.sguard <- guard
      | None ->
        let kind = match d.dstate with Some k -> k | None -> Field in
        Hashtbl.replace states d.dname
          { sname = d.dname; skind = kind; sline = d.dline; sguard = guard })
  in
  let fannot_of line label =
    match find_decl line (fun d -> d.dfun) with
    | None ->
      issue `Warning line "dangling %s: no function definition here" label;
      None
    | Some d -> (
      match Hashtbl.find_opt funs d.dname with
      | Some fa -> Some fa
      | None ->
        let fa =
          { floc = d.dline; frequires = []; facquires = []; fwith_lock = [];
            freleases = [] }
        in
        Hashtbl.replace funs d.dname fa;
        Some fa)
  in
  List.iter
    (fun (d : Directive.t) ->
      let q n = qualify base n in
      let waive w = Hashtbl.replace waivers (w, d.line) () in
      match d.directive with
      | Directive.Guarded_by l -> attach_state d.line (Guarded (q l)) "@guarded_by"
      | Directive.Confined _ -> attach_state d.line Confined "@confined"
      | Directive.Requires l -> (
        match fannot_of d.line "@requires" with
        | Some fa -> fa.frequires <- q l :: fa.frequires
        | None -> ())
      | Directive.Acquires l -> (
        match fannot_of d.line "@acquires" with
        | Some fa -> fa.facquires <- q l :: fa.facquires
        | None -> ())
      | Directive.With_lock l -> (
        match fannot_of d.line "@with_lock" with
        | Some fa -> fa.fwith_lock <- q l :: fa.fwith_lock
        | None -> ())
      | Directive.Releases l -> (
        (* NOT qualified: releases name resources by their binding ident
           (an fd, a channel), or a lock as [lock_name]; qualification of
           lock ids happens in the exception-flow pass. *)
        match fannot_of d.line "@releases" with
        | Some fa -> fa.freleases <- l :: fa.freleases
        | None -> ())
      | Directive.Race_ok _ -> waive Race_ok
      | Directive.Cleanup_ok _ -> waive Cleanup_ok
      | Directive.Swallow_ok _ -> waive Swallow_ok
      | Directive.Lock_order (a, b) ->
        if a = b then issue `Error d.line "@lock_order %s < %s is circular" a b
        else orders := (q a, q b, d.line) :: !orders)
    dirs;
  { path; base; structure; locks; states; funs; waivers;
    orders = List.rev !orders; issues = List.rev !issues;
    parse_error }

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      of_source ~path (really_input_string ic n))

let suppressed f w line =
  Hashtbl.mem f.waivers (w, line) || Hashtbl.mem f.waivers (w, line - 1)

let lock_of f (e : expression) =
  match (Walk.unconstrain e).pexp_desc with
  | Pexp_field (_, { txt; _ }) | Pexp_ident { txt; _ } ->
    let n = Walk.lid_last txt in
    if Hashtbl.mem f.locks n then Some (qualify f.base n) else None
  | _ -> None
