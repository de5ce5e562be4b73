(* The held-lock-set domain over the shared walker (Walk).

   The tracked set is the qualified locks known held; the domain flag is
   "inside a closure spawned on another domain/thread". Branches join by
   the core's rule (a lock is held after [if]/[match]/[try] only if every
   non-diverging exit holds it), loops are assumed lock-balanced, and
   closures are analyzed at their definition site with the definition-time
   held set — except closures passed to spawn points, which start from the
   empty set on a fresh domain/thread. *)

open Ppxlib
module SS = Walk.SS

type edge = { efrom : string; eto : string; efile : string; eline : int }

type result = { locks : string list; edges : edge list }

(* Primitives that can block the calling domain. [Mutex.lock] is excluded —
   it feeds the lock-order graph instead. Channel *output* is excluded by
   design: Trace deliberately writes under its sink mutex. *)
let blocking_heads =
  [ ("Unix", "read"); ("Unix", "write"); ("Unix", "accept");
    ("Unix", "connect"); ("Unix", "select"); ("Unix", "sleep");
    ("Unix", "sleepf"); ("Unix", "recv"); ("Unix", "send");
    ("Unix", "recvfrom"); ("Unix", "sendto"); ("Unix", "waitpid");
    ("Unix", "wait"); ("Unix", "system"); ("Thread", "join");
    ("Thread", "delay"); ("Domain", "join"); ("Pool", "await");
    ("Pool", "map"); ("Pool", "run"); ("Condition", "wait");
    ("", "input_line"); ("", "really_input"); ("", "really_input_string") ]

let is_blocking p = List.mem p blocking_heads

(* For interprocedural summaries only: [Condition.wait] blocks but releases
   the mutex it is given, so a callee built around it (a worker loop) is not
   "blocking under the lock" for its caller — the direct special case
   already validates each wait site. *)
let is_summary_blocking p = is_blocking p && p <> ("Condition", "wait")

let blocking_name (m, f) = if m = "" then f else m ^ "." ^ f

(* ---- interprocedural summaries: may-block, may-acquire ---- *)

type summary = {
  mutable s_block : bool;
  mutable s_acq : SS.t;
  mutable s_callees : Walk.key list;
}

(* Syntactic facts of one function body: blocking-primitive occurrences,
   direct lock acquisitions, callee candidates. Closure arguments of spawn
   points run on another domain, so their contents are excluded. *)
let rec facts (f : Model.file) sm (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    let p = Walk.last2 txt in
    if is_summary_blocking p then sm.s_block <- true;
    sm.s_callees <- Walk.key f.base p :: sm.s_callees
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
    match Walk.last2 txt with
    | ("Mutex", "lock") | ("Mutex", "protect") ->
      (match args with
      | (_, me) :: rest ->
        (match Model.lock_of f me with
        | Some l -> sm.s_acq <- SS.add l sm.s_acq
        | None -> ());
        List.iter (fun (_, a) -> facts f sm a) rest
      | [] -> ())
    | p when Walk.is_spawn p -> if is_summary_blocking p then sm.s_block <- true
    | p ->
      if is_summary_blocking p then sm.s_block <- true
      else sm.s_callees <- Walk.key f.base p :: sm.s_callees;
      List.iter (fun (_, a) -> facts f sm a) args)
  | _ -> List.iter (facts f sm) (Walk.children e)

let build_summaries (files : Model.file list) =
  Walk.summarize
    (List.map (fun (f : Model.file) -> (f, f.base, f.structure)) files)
    ~fresh:(fun () -> { s_block = false; s_acq = SS.empty; s_callees = [] })
    ~facts:(fun (f : Model.file) name sm body ->
      facts f sm body;
      (match Hashtbl.find_opt f.funs name with
      | Some fa ->
        sm.s_acq <- SS.union sm.s_acq (SS.of_list fa.facquires);
        sm.s_acq <- SS.union sm.s_acq (SS.of_list fa.fwith_lock)
      | None -> ());
      sm.s_callees <- List.sort_uniq compare sm.s_callees)
    ~calls:(fun sm -> List.map (fun k -> (k, ())) sm.s_callees)
    ~grow:(fun sm () c ->
      let grew =
        (c.s_block && not sm.s_block) || not (SS.subset c.s_acq sm.s_acq)
      in
      sm.s_block <- sm.s_block || c.s_block;
      sm.s_acq <- SS.union sm.s_acq c.s_acq;
      grew)

(* ---- the walker: tracked = held locks, dom = inside a spawned closure ---- *)

type env = bool Walk.env

type ctx = {
  cfile : Model.file;
  models : (string, Model.file) Hashtbl.t;  (* base -> file(s) *)
  summaries : (Walk.key, summary) Hashtbl.t;
  sink : Walk.item list ref;
  raw_edges : edge list ref;
}

(* an error finding at [line] of the file being walked *)
let err ctx line = Walk.emit ctx.sink ctx.cfile.Model.path line `E

let held_str held = String.concat ", " (SS.elements held)

let add_edges ctx line held ~to_:l =
  SS.iter
    (fun h ->
      if h <> l then
        ctx.raw_edges :=
          { efrom = h; eto = l; efile = ctx.cfile.Model.path; eline = line }
          :: !(ctx.raw_edges))
    held

let fannots_of ctx txt : Model.fannot list =
  match Walk.last2 txt with
  | "", n -> (
    match Hashtbl.find_opt ctx.cfile.Model.funs n with
    | Some fa -> [ fa ]
    | None -> [])
  | m, n ->
    Hashtbl.find_all ctx.models (String.lowercase_ascii m)
    |> List.filter_map (fun (f : Model.file) -> Hashtbl.find_opt f.funs n)

let summaries_of ctx txt =
  Walk.summaries_of ctx.summaries ctx.cfile.Model.base txt

(* [ident] marks a bare-identifier mention: those cannot denote record
   fields and are exempt when the name is shadowed by a local binding. *)
let check_state_access ?(ident = false) ctx (env : env) ~line ~write name =
  match Hashtbl.find_opt ctx.cfile.Model.states name with
  | Some st when ident && (SS.mem name env.shadow || st.Model.skind = Model.Field)
    ->
    ()
  | None -> ()
  | Some st -> (
    match st.Model.sguard with
    | Model.Confined | Model.Unannotated -> ()
    | Model.Guarded l ->
      if not (SS.mem l env.tracked) then
        if Model.suppressed ctx.cfile Model.Race_ok line then ()
        else if env.dom then
          err ctx line "src-domain-capture"
            "closure passed to another domain captures %s (guarded by %s) \
             without acquiring it"
            name l
        else
          err ctx line "src-unguarded-access"
            "%s to %s (guarded by %s) without holding %s"
            (if write then "write" else "access")
            name l l)

(* blocking checks for any mention of a name while locks are held *)
let check_blocking ctx (env : env) ~line txt =
  if not (SS.is_empty env.tracked) then begin
    let p = Walk.last2 txt in
    if is_blocking p then
      err ctx line "src-blocking-under-lock"
        "blocking call %s while holding %s" (blocking_name p)
        (held_str env.tracked)
    else if List.exists (fun s -> s.s_block) (summaries_of ctx txt) then
      err ctx line "src-blocking-under-lock"
        "call to %s may block (transitively) while holding %s"
        (blocking_name p) (held_str env.tracked)
  end

let rec walk ctx (env : env) (e : expression) : env =
  let line = e.pexp_loc.loc_start.pos_lnum in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    check_blocking ctx env ~line txt;
    (match txt with
    | Lident n -> check_state_access ~ident:true ctx env ~line ~write:false n
    | _ -> ());
    env
  | Pexp_field (b, { txt; _ }) ->
    let env = walk ctx env b in
    check_state_access ctx env ~line ~write:false (Walk.lid_last txt);
    env
  | Pexp_setfield (b, { txt; _ }, v) ->
    let env = walk ctx env b in
    let env = walk ctx env v in
    check_state_access ctx env ~line ~write:true (Walk.lid_last txt);
    env
  | Pexp_let (_, vbs, body) ->
    List.iter
      (fun vb ->
        (* a local function carrying a lock precondition (@requires) is
           analyzed with that precondition held *)
        let env' =
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = n; _ } when Walk.is_closure vb.pvb_expr -> (
            match Hashtbl.find_opt ctx.cfile.Model.funs n with
            | Some fa ->
              { env with
                tracked = SS.union env.tracked (SS.of_list fa.frequires) }
            | None -> env)
          | _ -> env
        in
        ignore (walk ctx env' vb.pvb_expr))
      vbs;
    Walk.let_body ~walk:(walk ctx) env vbs body
  | Pexp_match (s, cases) ->
    let env0 = walk ctx env s in
    Walk.join env0 (List.filter_map (Walk.case ~walk:(walk ctx) env0) cases)
  | Pexp_try (s, cases) ->
    Walk.join_try ~walk:(walk ctx) env (walk ctx env s) cases
  | Pexp_record (fields, base) ->
    (* building a record is not an access to the (new) fields; [{ b with .. }]
       reads of unnamed fields of [b] are not modeled *)
    let env = match base with Some b -> walk ctx env b | None -> env in
    List.fold_left (fun acc (_, fe) -> walk ctx acc fe) env fields
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; pexp_loc; _ }, args) ->
    apply ctx env ~line ~head_line:pexp_loc.loc_start.pos_lnum txt args
  | _ -> Walk.step ~walk:(walk ctx) env e

and apply ctx (env : env) ~line ~head_line txt args =
  let walk_args env =
    List.fold_left (fun acc (_, a) -> walk ctx acc a) env args
  in
  let held = env.tracked in
  match (Walk.last2 txt, args) with
  | ("Mutex", "lock"), (_, me) :: _ -> (
    let env = walk_args env in
    match Model.lock_of ctx.cfile me with
    | None -> env
    | Some l ->
      if SS.mem l env.tracked then begin
        err ctx line "src-recursive-lock"
          "Mutex.lock on %s which is already held" l;
        env
      end
      else begin
        add_edges ctx line env.tracked ~to_:l;
        { env with tracked = SS.add l env.tracked }
      end)
  | ("Mutex", "unlock"), (_, me) :: _ -> (
    let env = walk_args env in
    match Model.lock_of ctx.cfile me with
    | None -> env
    | Some l -> { env with tracked = SS.remove l env.tracked })
  | ("Mutex", "try_lock"), (_, me) :: _ -> (
    (* records the ordering edge but conservatively does not assume held *)
    let env = walk_args env in
    match Model.lock_of ctx.cfile me with
    | None -> env
    | Some l ->
      add_edges ctx line env.tracked ~to_:l;
      env)
  | ("Mutex", "protect"), (_, me) :: rest -> (
    let env = walk ctx env me in
    match Model.lock_of ctx.cfile me with
    | None -> List.fold_left (fun acc (_, a) -> walk ctx acc a) env rest
    | Some l ->
      if SS.mem l env.tracked then
        err ctx line "src-recursive-lock"
          "Mutex.protect on %s which is already held" l;
      add_edges ctx line env.tracked ~to_:l;
      let inner = { env with tracked = SS.add l env.tracked } in
      List.iter (fun (_, a) -> ignore (walk ctx inner a)) rest;
      env)
  | ("Condition", "wait"), [ (_, ce); (_, me) ] -> (
    let env = walk ctx (walk ctx env ce) me in
    match Model.lock_of ctx.cfile me with
    | None -> env
    | Some l ->
      if not (SS.mem l env.tracked) then
        err ctx line "src-condition-wait" "Condition.wait with %s not held" l;
      let others = SS.remove l env.tracked in
      if not (SS.is_empty others) then
        err ctx line "src-blocking-under-lock"
          "Condition.wait releases only %s while still holding %s" l
          (held_str others);
      env)
  | ("Fun", "protect"), _ -> (
    (* [Fun.protect ~finally body]: body runs now, finally on exit; locks
       unlocked in [finally] are released on every path out *)
    let finally =
      List.find_map
        (fun (lbl, a) ->
          match lbl with Labelled "finally" -> Some a | _ -> None)
        args
    in
    let unlocked =
      match finally with
      | None -> SS.empty
      | Some fin ->
        let acc = ref SS.empty in
        let it =
          object
            inherit Ast_traverse.iter as super

            method! expression x =
              (match x.pexp_desc with
              | Pexp_apply
                  ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, me) :: _)
                when Walk.last2 txt = ("Mutex", "unlock") -> (
                match Model.lock_of ctx.cfile me with
                | Some l -> acc := SS.add l !acc
                | None -> ())
              | _ -> ());
              super#expression x
          end
        in
        it#expression fin;
        !acc
    in
    let body =
      List.find_map
        (fun (lbl, a) -> match lbl with Nolabel -> Some a | _ -> None)
        args
    in
    (match finally with
    | Some fin -> ignore (walk ctx env fin)
    | None -> ());
    match body with
    | None -> { env with tracked = SS.diff held unlocked }
    | Some b ->
      let eb = walk ctx env b in
      { env with tracked = SS.diff eb.tracked unlocked })
  | (p, _) when Walk.is_spawn p ->
    (* closure literals run on another domain: empty held set, capture
       checks on; other arguments are evaluated here *)
    let env' =
      List.fold_left
        (fun acc (_, a) ->
          if Walk.is_closure a then begin
            ignore (walk ctx { env with tracked = SS.empty; dom = true } a);
            acc
          end
          else walk ctx acc a)
        env args
    in
    if is_blocking p && not (SS.is_empty held) then
      err ctx line "src-blocking-under-lock"
        "blocking call %s while holding %s" (blocking_name p) (held_str held);
    (* the spawn primitive itself may take locks on the calling thread
       (Pool.submit enqueues under the pool mutex) *)
    List.iter
      (fun s ->
        SS.iter
          (fun a -> if not (SS.mem a held) then add_edges ctx line held ~to_:a)
          s.s_acq)
      (summaries_of ctx txt);
    env'
  | (_, fname), _ ->
    check_blocking ctx env ~line:head_line txt;
    (match txt with
    | Lident n -> check_state_access ~ident:true ctx env ~line ~write:false n
    | _ -> ());
    (* [state := v] — flag the write on the ref itself; the bare-ident
       LHS is consumed here so the argument walk below does not also
       report it as a read *)
    let args =
      match (fname, args) with
      | ( ":=",
          (_, { pexp_desc = Pexp_ident { txt = Lident n; _ }; _ }) :: rest ) ->
        check_state_access ~ident:true ctx env ~line ~write:true n;
        rest
      | _ -> args
    in
    let fas = fannots_of ctx txt in
    (* lock preconditions (@requires): caller must already hold them *)
    List.iter
      (fun (fa : Model.fannot) ->
        List.iter
          (fun l ->
            if not (SS.mem l held) then
              err ctx line "src-requires-violation"
                "call to %s requires %s which is not held" fname l)
          fa.frequires)
      fas;
    let with_locks =
      List.concat_map (fun (fa : Model.fannot) -> fa.fwith_lock) fas
    in
    let env' =
      if with_locks = [] then
        List.fold_left (fun acc (_, a) -> walk ctx acc a) env args
      else begin
        (* a @with_lock wrapper: closure arguments run with the lock held *)
        List.iter (fun l -> add_edges ctx line held ~to_:l) with_locks;
        let inner =
          { env with tracked = SS.union held (SS.of_list with_locks) }
        in
        List.fold_left
          (fun acc (_, a) ->
            if Walk.is_closure a then begin
              ignore (walk ctx inner a);
              acc
            end
            else walk ctx acc a)
          env args
      end
    in
    (* summary effects: lock-order edges through the callee *)
    List.iter
      (fun s ->
        SS.iter
          (fun a ->
            if not (SS.mem a env'.tracked) then
              add_edges ctx line env'.tracked ~to_:a)
          s.s_acq)
      (summaries_of ctx txt);
    env'

let walk_file ctx =
  let start held = { Walk.tracked = held; shadow = SS.empty; dom = false } in
  let rec item (it : structure_item) =
    match it.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          let held0 =
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt = n; _ } -> (
              match Hashtbl.find_opt ctx.cfile.Model.funs n with
              | Some fa -> SS.of_list fa.frequires
              | None -> SS.empty)
            | _ -> SS.empty
          in
          ignore (walk ctx (start held0) vb.pvb_expr))
        vbs
    | Pstr_eval (e, _) -> ignore (walk ctx (start SS.empty) e)
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
      List.iter item sub
    | _ -> ()
  in
  List.iter item ctx.cfile.Model.structure

(* ---- lock-order graph analysis ---- *)

let dedup_edges raw =
  let seen = Hashtbl.create 32 in
  List.fold_left
    (fun acc e ->
      if Hashtbl.mem seen (e.efrom, e.eto) then acc
      else begin
        Hashtbl.replace seen (e.efrom, e.eto) ();
        e :: acc
      end)
    [] (List.rev raw)
  |> List.rev

(* strongly connected components (Tarjan); nodes sorted for determinism *)
let sccs nodes adj =
  let index = Hashtbl.create 16 and low = Hashtbl.create 16 in
  let onstack = Hashtbl.create 16 in
  let stack = ref [] and counter = ref 0 and out = ref [] in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace onstack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem onstack w then
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (try Hashtbl.find adj v with Not_found -> []);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let comp = ref [] in
      let fin = ref false in
      while not !fin do
        match !stack with
        | [] -> fin := true
        | w :: rest ->
          stack := rest;
          Hashtbl.remove onstack w;
          comp := w :: !comp;
          if w = v then fin := true
      done;
      out := List.sort compare !comp :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) nodes;
  List.rev !out

let order_findings sink (files : Model.file list) edges =
  let emit_at file line = Walk.emit sink file line `E in
  (* observed-cycle detection *)
  let adj = Hashtbl.create 16 in
  let nodes = ref SS.empty in
  List.iter
    (fun e ->
      nodes := SS.add e.efrom (SS.add e.eto !nodes);
      Hashtbl.replace adj e.efrom
        (e.eto :: (try Hashtbl.find adj e.efrom with Not_found -> [])))
    edges;
  List.iter
    (fun comp ->
      match comp with
      | [] | [ _ ] -> ()
      | _ ->
        let inside =
          List.filter
            (fun e -> List.mem e.efrom comp && List.mem e.eto comp)
            edges
        in
        let site =
          List.fold_left
            (fun best e ->
              match best with
              | None -> Some e
              | Some b ->
                if (e.efile, e.eline) < (b.efile, b.eline) then Some e
                else best)
            None inside
        in
        let file, line =
          match site with Some e -> (e.efile, e.eline) | None -> ("", 0)
        in
        emit_at file line "src-lock-order-cycle"
          "potential deadlock: lock acquisition cycle between %s"
          (String.concat " <-> " comp))
    (sccs (SS.elements !nodes) adj);
  (* declared-order transitive closure *)
  let declared = Hashtbl.create 16 in
  let decl_line = Hashtbl.create 16 in
  List.iter
    (fun (f : Model.file) ->
      List.iter
        (fun (a, b, line) ->
          Hashtbl.replace declared (a, b) ();
          if not (Hashtbl.mem decl_line (a, b)) then
            Hashtbl.replace decl_line (a, b) (f.path, line))
        f.orders)
    files;
  let changed = ref true in
  while !changed do
    changed := false;
    let pairs = Hashtbl.fold (fun k () acc -> k :: acc) declared [] in
    List.iter
      (fun (a, b) ->
        List.iter
          (fun (b', c) ->
            if b = b' && not (Hashtbl.mem declared (a, c)) then begin
              Hashtbl.replace declared (a, c) ();
              (match Hashtbl.find_opt decl_line (a, b) with
              | Some loc -> Hashtbl.replace decl_line (a, c) loc
              | None -> ());
              changed := true
            end)
          pairs)
      pairs
  done;
  (* contradictions among declarations *)
  let reported = Hashtbl.create 4 in
  Hashtbl.iter
    (fun (a, b) () ->
      if a < b && Hashtbl.mem declared (b, a) && not (Hashtbl.mem reported (a, b))
      then begin
        Hashtbl.replace reported (a, b) ();
        let file, line =
          match Hashtbl.find_opt decl_line (a, b) with
          | Some loc -> loc
          | None -> ("", 0)
        in
        emit_at file line "src-lock-order-contradiction"
          "@lock_order declarations order %s and %s both ways" a b
      end)
    declared;
  (* observed edges against declared order *)
  List.iter
    (fun e ->
      if Hashtbl.mem declared (e.eto, e.efrom) then
        emit_at e.efile e.eline "src-lock-order-violation"
          "acquired %s while holding %s, but @lock_order declares %s < %s"
          e.eto e.efrom e.eto e.efrom)
    edges

(* ---- annotation hygiene across the whole set ---- *)

let stale_findings sink (files : Model.file list) all_locks =
  let stale (f : Model.file) line l =
    if not (SS.mem l all_locks) then
      Walk.emit sink f.path line `E "src-stale-annotation"
        "annotation names unknown lock %s" l
  in
  List.iter
    (fun (f : Model.file) ->
      Hashtbl.iter
        (fun _ (st : Model.state) ->
          match st.sguard with
          | Model.Guarded l -> stale f st.sline l
          | Model.Confined | Model.Unannotated -> ())
        f.states;
      Hashtbl.iter
        (fun _ (fa : Model.fannot) ->
          List.iter (stale f fa.floc)
            (fa.frequires @ fa.facquires @ fa.fwith_lock))
        f.funs;
      List.iter
        (fun (a, b, line) ->
          stale f line a;
          stale f line b)
        f.orders)
    files

(* ---- entry point ---- *)

let check sink (files : Model.file list) =
  let models = Hashtbl.create 16 in
  List.iter (fun (f : Model.file) -> Hashtbl.add models f.Model.base f) files;
  let all_locks =
    List.fold_left
      (fun acc (f : Model.file) ->
        Hashtbl.fold
          (fun short _ acc -> SS.add (Model.qualify f.base short) acc)
          f.locks acc)
      SS.empty files
  in
  let summaries = build_summaries files in
  stale_findings sink files all_locks;
  let raw_edges = ref [] in
  List.iter
    (fun (f : Model.file) ->
      walk_file { cfile = f; models; summaries; sink; raw_edges })
    files;
  let edges = dedup_edges !raw_edges in
  order_findings sink files edges;
  { locks = SS.elements all_locks; edges }
