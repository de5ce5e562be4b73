(* The source-analysis core under both analyzers: parsetree helpers, the
   binding enumerator, the name-based summary fixpoint, the walker skeleton
   with its one branch-join rule, and the finding sink. Lockcheck and
   Exnflow each add only an abstract domain on top. *)

open Ppxlib
module Finding = Rdb_analysis.Finding
module SS = Set.Make (String)

(* ---- syntax helpers ---- *)

let rec lid_last = function
  | Lident s -> s
  | Ldot (_, s) -> s
  | Lapply (_, l) -> lid_last l

(* last module component + value name: [Rdb_util.Pool.submit] -> (Pool, submit) *)
let last2 = function
  | Lident f -> ("", f)
  | Ldot (p, f) -> (lid_last p, f)
  | Lapply (_, l) -> ("", lid_last l)

let rec unconstrain (e : expression) =
  match e.pexp_desc with
  | Pexp_constraint (e', _) -> unconstrain e'
  | _ -> e

let is_closure e =
  match (unconstrain e).pexp_desc with Pexp_function _ -> true | _ -> false

let pat_name (p : pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint ({ ppat_desc = Ppat_var { txt; _ }; _ }, _) -> Some txt
  | _ -> None

let pat_vars (p : pattern) =
  let acc = ref SS.empty in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! pattern p =
        (match p.ppat_desc with
        | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
          acc := SS.add txt !acc
        | _ -> ());
        super#pattern p
    end
  in
  it#pattern p;
  !acc

(* Depth-1 child expressions, for AST constructors with no special rule. *)
let children (e : expression) : expression list =
  let acc = ref [] in
  let depth = ref 0 in
  let it =
    object
      inherit Ast_traverse.iter as super

      method! expression x =
        if !depth = 0 then begin
          incr depth;
          super#expression x;
          decr depth
        end
        else acc := x :: !acc
    end
  in
  it#expression e;
  List.rev !acc

(* Calls that hand a closure to another domain/thread, plus the pool entry
   points. Name-based so the check also fires on sources analyzed without
   their Pool counterpart. *)
let spawn_heads =
  [ ("Domain", "spawn"); ("Thread", "create"); ("Pool", "submit");
    ("Pool", "map"); ("Pool", "run") ]

let is_spawn p = List.mem p spawn_heads

(* Heads that never return normally: the raises, whose argument is the
   escaping exception, and the failing primitives. *)
let divergent_heads =
  [ ("", "raise"); ("", "raise_notrace"); ("Stdlib", "raise");
    ("Stdlib", "raise_notrace"); ("Printexc", "raise_with_backtrace");
    ("", "failwith"); ("", "invalid_arg"); ("Stdlib", "failwith");
    ("Stdlib", "invalid_arg") ]

let is_divergent p = List.mem p divergent_heads

let is_raise_head ((_, f) as p) =
  is_divergent p && f <> "failwith" && f <> "invalid_arg"

(* Branches that cannot return normally (raise, failwith, assert false)
   take no part in a branch join: [if bad then (unlock; fail)] still holds
   the lock on the fall-through path. *)
let rec diverges (e : expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    is_divergent (last2 txt)
  | Pexp_assert
      { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
    true
  | Pexp_sequence (_, b) | Pexp_let (_, _, b) -> diverges b
  | Pexp_constraint (b, _) -> diverges b
  | Pexp_ifthenelse (_, t, Some f) -> diverges t && diverges f
  | Pexp_match (_, cases) ->
    cases <> [] && List.for_all (fun c -> diverges c.pc_rhs) cases
  | _ -> false

(* ---- bindings and summaries ---- *)

type key = string * string

(* The summary key of a callee from file [base]: [M.f] -> (m, f). *)
let key base (m, n) = ((if m = "" then base else String.lowercase_ascii m), n)

let summaries_of tbl base txt = Hashtbl.find_all tbl (key base (last2 txt))

(* Every named binding whose body we can summarize: toplevel and local. *)
let bindings_of (structure : structure) : (string * expression) list =
  let out = ref [] in
  let add vb =
    match pat_name vb.pvb_pat with
    | Some txt -> out := (txt, vb.pvb_expr) :: !out
    | None -> ()
  in
  let rec item (it : structure_item) =
    match it.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter add vbs
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
      List.iter item sub
    | _ -> ()
  in
  List.iter item structure;
  let locals =
    object
      inherit Ast_traverse.iter as super

      method! expression e =
        (match e.pexp_desc with
        | Pexp_let (_, vbs, _) ->
          List.iter (fun vb -> if is_closure vb.pvb_expr then add vb) vbs
        | _ -> ());
        super#expression e
    end
  in
  locals#structure structure;
  List.rev !out

let summarize units ~fresh ~facts ~calls ~grow =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (f, base, structure) ->
      List.iter
        (fun (name, body) ->
          let sm =
            match Hashtbl.find_opt tbl (base, name) with
            | Some sm -> sm
            | None ->
              let sm = fresh () in
              Hashtbl.replace tbl (base, name) sm;
              sm
          in
          facts f name sm body)
        (bindings_of structure))
    units;
  (* fixpoint over the name-based call graph *)
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun _ sm ->
        List.iter
          (fun (k, site) ->
            List.iter
              (fun c -> if c != sm && grow sm site c then changed := true)
              (Hashtbl.find_all tbl k))
          (calls sm))
      tbl
  done;
  tbl

(* ---- the walker skeleton ---- *)

type 'd env = { tracked : SS.t; shadow : SS.t; dom : 'd }

let shadowing env pats =
  let add acc p = SS.union acc (pat_vars p) in
  { env with shadow = List.fold_left add env.shadow pats }

let join base = function
  | [] -> base
  | e :: rest ->
    let inter acc x = SS.inter acc x.tracked in
    { base with tracked = List.fold_left inter e.tracked rest }

let case ~walk env c =
  let env = shadowing env [ c.pc_lhs ] in
  let env = match c.pc_guard with Some g -> walk env g | None -> env in
  let ex = walk env c.pc_rhs in
  if diverges c.pc_rhs then None else Some ex

let join_try ~walk env body_exit cases =
  join env (body_exit :: List.filter_map (case ~walk env) cases)

let let_body ~walk env vbs body =
  walk (shadowing env (List.map (fun vb -> vb.pvb_pat) vbs)) body

let rec fn ~walk env (e : expression) =
  match (unconstrain e).pexp_desc with
  | Pexp_function (params, _, body) -> (
    let pats =
      List.filter_map
        (fun p ->
          match p.pparam_desc with
          | Pparam_val (_, d, pat) ->
            Option.iter (fun d -> ignore (walk env d)) d;
            Some pat
          | Pparam_newtype _ -> None)
        params
    in
    let benv = shadowing env pats in
    match body with
    | Pfunction_body b -> fn ~walk benv b
    | Pfunction_cases (cases, _, _) ->
      List.iter (fun c -> ignore (case ~walk benv c)) cases)
  | _ -> ignore (walk env e)

let arg ~walk env a =
  if is_closure a then begin
    fn ~walk env a;
    env
  end
  else walk env a

let step ~walk env (e : expression) =
  match e.pexp_desc with
  | Pexp_sequence (a, b) -> walk (walk env a) b
  | Pexp_ifthenelse (c, t, f) -> (
    let envc = walk env c in
    let et = walk envc t in
    let ef = match f with Some f -> walk envc f | None -> envc in
    let exit b eb = if diverges b then [] else [ eb ] in
    let exits =
      exit t et @ match f with Some f -> exit f ef | None -> [ ef ]
    in
    match exits with
    | [] -> et (* both branches diverge: the join is unreachable *)
    | _ -> join envc exits)
  | Pexp_while (c, b) ->
    ignore (walk (walk env c) b);
    env
  | Pexp_for (pat, a, b, _, body) ->
    let env' = walk (walk env a) b in
    ignore (walk (shadowing env' [ pat ]) body);
    env'
  | Pexp_function _ ->
    fn ~walk env e;
    env
  | Pexp_apply (head, args) ->
    List.fold_left (fun acc (_, a) -> arg ~walk acc a) (walk env head) args
  | _ -> List.fold_left walk env (children e)

(* ---- the finding sink ---- *)

type item = { file : string; line : int; finding : Finding.t }

let emit sink file line sev code fmt =
  Printf.ksprintf
    (fun msg ->
      let finding =
        match sev with
        | `E -> Finding.error ~code msg
        | `W -> Finding.warning ~code msg
      in
      sink := { file; line; finding } :: !sink)
    fmt
