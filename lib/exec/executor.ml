module Relset = Rdb_util.Relset
module Int_vec = Rdb_util.Int_vec
module Query = Rdb_query.Query
module Predicate = Rdb_query.Predicate
module Plan = Rdb_plan.Plan
module Metrics = Rdb_obs.Metrics
module Clock = Rdb_obs.Clock

type node_obs = {
  obs_set : Relset.t;
  obs_est : float;
  obs_actual : int;
  obs_label : string;
}

type result = {
  aggs : Value.t list;
  out_rows : int;
  work : int;
  peak_rows : int;
  elapsed_ms : float;
  observations : node_obs list;
  switches : int;
}

exception Work_budget_exceeded of { spent : int; elapsed_ms : float }

(* An intermediate relation: [width] base-table row ids per tuple, one per
   member of [rels] (in that order). *)
type inter = { rels : int array; width : int; data : int array; nrows : int }

type ctx = {
  catalog : Catalog.t;
  q : Query.t;
  tables : Table.t array;
  filters : (int -> bool) array;  (* per relation, [Predicate.compile_filter] *)
  mutable work : int;
  budget : int option;
  deadline_ms : float option;
  mutable next_deadline_check : int;
  mutable deadline_stride : int;
  start : float;
  mutable obs : node_obs list;
  adaptive : bool;
  mutable switches : int;
}

(* Work charges and resident row-slots: [Plan.Usage] over actual rows,
   the rule [Rdb_analysis.Resource] evaluates over intervals. A per-row
   charge is its count times the term at one item (terms are linear), so
   the row loops call nothing. *)
module U = Plan.Usage (Int)

let emit_unit = U.hash_emit ~matches:1
let lookup_unit = U.lookup ~candidates:1

(* The deadline clock is read on a geometric schedule: the first check
   fires after [initial_deadline_stride] work units so that millisecond
   deadlines bite even on cheap plans, then the stride doubles up to
   [max_deadline_stride] so the clock read stays negligible on the
   plans the budget actually exists for. *)
let initial_deadline_stride = 1_024
let max_deadline_stride = 4_000_000

let elapsed_ms ctx = Clock.ms_since ctx.start

let spend ctx n =
  ctx.work <- ctx.work + n;
  (match ctx.budget with
   | Some b when ctx.work > b ->
     Metrics.incr "exec.budget_aborts";
     raise (Work_budget_exceeded { spent = ctx.work; elapsed_ms = elapsed_ms ctx })
   | Some _ | None -> ());
  match ctx.deadline_ms with
  | Some limit when ctx.work >= ctx.next_deadline_check ->
    ctx.deadline_stride <- Int.min (2 * ctx.deadline_stride) max_deadline_stride;
    ctx.next_deadline_check <- ctx.work + ctx.deadline_stride;
    let e = elapsed_ms ctx in
    if e > limit then begin
      Metrics.incr "exec.deadline_aborts";
      raise (Work_budget_exceeded { spent = ctx.work; elapsed_ms = e })
    end
  | Some _ | None -> ()

let slots inter = U.slots ~rows:inter.nrows ~width:inter.width

let pos_of_rel inter rel =
  let rec scan i =
    if i >= inter.width then invalid_arg "Executor: relation not in intermediate"
    else if inter.rels.(i) = rel then i
    else scan (i + 1)
  in
  scan 0

let observe ctx node inter label =
  ctx.obs <-
    {
      obs_set = Plan.rel_set node;
      obs_est = Plan.est_rows node;
      obs_actual = inter.nrows;
      obs_label = label;
    }
    :: ctx.obs

let scan_node ctx (s : Plan.scan) =
  let rel = s.Plan.scan_rel in
  let tbl = ctx.tables.(rel) in
  let keep = ctx.filters.(rel) in
  let out = Int_vec.create ~capacity:1024 () in
  (match s.Plan.access with
   | Plan.Seq_scan ->
     let n = Table.nrows tbl in
     spend ctx (U.seq_scan ~table_rows:n);
     for row = 0 to n - 1 do
       if keep row then Int_vec.push out row
     done
   | Plan.Index_scan { col; key } ->
     (match Catalog.index ctx.catalog ~table:(Table.name tbl) ~col with
      | None -> invalid_arg "Executor: index scan without index"
      | Some index ->
        let candidates = Hash_index.lookup index key in
        spend ctx (U.lookup ~candidates:(Array.length candidates));
        for c = 0 to Array.length candidates - 1 do
          if keep candidates.(c) then Int_vec.push out candidates.(c)
        done));
  let data = Int_vec.to_array out in
  { rels = [| rel |]; width = 1; data; nrows = Array.length data }

(* The value of (rel, col) for tuple [i] of an intermediate. *)
let cell ctx inter pos col i =
  let rowid = inter.data.((i * inter.width) + pos) in
  Table.int_cell ctx.tables.(inter.rels.(pos)) ~row:rowid ~col

(* A join's probe phase records its matches as pairs, in emission order:
   pair [k] joins outer tuple [outer_of.(k)] with inner tuple
   [inner_of.(k)] — for index NL, with inner base-table rowid
   [inner_of.(k)]. Two int pushes per match, whatever the tuple width. *)
type pairs = { outer_of : Int_vec.t; inner_of : Int_vec.t }

let new_pairs () =
  { outer_of = Int_vec.create ~capacity:1024 (); inner_of = Int_vec.create ~capacity:1024 () }

let record pairs o i =
  Int_vec.push pairs.outer_of o;
  Int_vec.push pairs.inner_of i

(* The inner side of a join output: the tuples of an intermediate, or the
   rowids of one base relation probed through its index. *)
type inner = Tuples of inter | Rowids of int

(* The join output, allocated at its exact size and filled pair by pair:
   the outer tuple, then the inner tuple. The copies are plain loops over
   [int array]s, which compile to bare stores; [Array.blit] into a
   major-heap array would take the write barrier per cell. *)
let gather outer inner pairs =
  let n = Int_vec.length pairs.outer_of in
  let os = Int_vec.unsafe_data pairs.outer_of and is = Int_vec.unsafe_data pairs.inner_of in
  let ow = outer.width in
  (* a rowid pair's inner "tuple" is its own cell of [is]: width 1 at [k] *)
  let rels, iw, idata, rowids =
    match inner with
    | Tuples t -> (Array.append outer.rels t.rels, t.width, t.data, false)
    | Rowids rel -> (Array.append outer.rels [| rel |], 1, is, true)
  in
  let width = ow + iw in
  let data = Array.make (n * width) 0 in
  let odata = outer.data in
  for k = 0 to n - 1 do
    let dst = k * width in
    let osrc = os.(k) * ow in
    for c = 0 to ow - 1 do data.(dst + c) <- odata.(osrc + c) done;
    let isrc = if rowids then k else is.(k) * iw in
    for c = 0 to iw - 1 do data.(dst + ow + c) <- idata.(isrc + c) done
  done;
  { rels; width; data; nrows = n }

let key_positions inter side edges =
  Array.of_list
    (List.map
       (fun e ->
         let (c : Query.colref) = side e in
         (pos_of_rel inter c.Query.rel, c.Query.col))
       edges)

let hash_join ctx (j : Plan.join) outer inner =
  let edges = j.Plan.join_edges in
  let okeys = key_positions outer (fun e -> e.Query.l) edges in
  let ikeys = key_positions inner (fun e -> e.Query.r) edges in
  let pairs = new_pairs () in
  (* bucket lists hold inner tuple indexes, newest first *)
  let rec emit_all i = function
    | [] -> ()
    | k :: rest ->
      record pairs i k;
      emit_all i rest
  in
  (* build on the inner side, probe with the outer; NULL keys never match *)
  let join_on key_of has_null =
    let index = Hashtbl.create (Int.max 16 inner.nrows) in
    spend ctx (U.hash_build ~inner_rows:inner.nrows);
    for i = 0 to inner.nrows - 1 do
      let key = key_of inner ikeys i in
      if not (has_null key) then
        Hashtbl.replace index key
          (i :: Option.value ~default:[] (Hashtbl.find_opt index key))
    done;
    spend ctx (U.probe ~outer_rows:outer.nrows);
    for i = 0 to outer.nrows - 1 do
      let key = key_of outer okeys i in
      if not (has_null key) then
        match Hashtbl.find_opt index key with
        | Some ks ->
          spend ctx (emit_unit * List.length ks);
          emit_all i ks
        | None -> ()
    done
  in
  (match okeys with
   | [| _ |] ->
     join_on
       (fun inter keys i -> cell ctx inter (fst keys.(0)) (snd keys.(0)) i)
       (fun key -> key = Column.null_int)
   | _ ->
     join_on
       (fun inter keys i -> Array.map (fun (pos, col) -> cell ctx inter pos col i) keys)
       (Array.exists (fun v -> v = Column.null_int)));
  gather outer (Tuples inner) pairs

let index_nl ctx (j : Plan.join) outer inner_rel inner_col =
  let edges = j.Plan.join_edges in
  let key_edge, other_edges =
    match
      List.partition (fun e -> e.Query.r.Query.col = inner_col) edges
    with
    | e :: more, others -> (e, more @ others)
    | [], _ -> invalid_arg "Executor: index NL without key edge"
  in
  let tbl = ctx.tables.(inner_rel) in
  let index =
    match Catalog.index ctx.catalog ~table:(Table.name tbl) ~col:inner_col with
    | Some i -> i
    | None -> invalid_arg "Executor: index NL without index"
  in
  let keep = ctx.filters.(inner_rel) in
  let opos_key = pos_of_rel outer key_edge.Query.l.Query.rel in
  let ocol_key = key_edge.Query.l.Query.col in
  let others =
    Array.of_list
      (List.map
         (fun e ->
           (pos_of_rel outer e.Query.l.Query.rel, e.Query.l.Query.col, e.Query.r.Query.col))
         other_edges)
  in
  (* outer tuple [i] and inner row [row] agree on every non-key edge *)
  let rec others_hold e i row =
    e >= Array.length others
    ||
    let opos, ocol, icol = others.(e) in
    let ov = cell ctx outer opos ocol i in
    ov <> Column.null_int
    && ov = Table.int_cell tbl ~row ~col:icol
    && others_hold (e + 1) i row
  in
  let pairs = new_pairs () in
  spend ctx (U.probe ~outer_rows:outer.nrows);
  for i = 0 to outer.nrows - 1 do
    let key = cell ctx outer opos_key ocol_key i in
    if key <> Column.null_int then begin
      let candidates = Hash_index.lookup index key in
      spend ctx (lookup_unit * Array.length candidates);
      for c = 0 to Array.length candidates - 1 do
        let row = candidates.(c) in
        if others_hold 0 i row && keep row then record pairs i row
      done
    end
  done;
  gather outer (Rowids inner_rel) pairs

let nested_loop ctx (j : Plan.join) outer inner =
  let edges = j.Plan.join_edges in
  let conds =
    Array.of_list
      (List.map
         (fun e ->
           ( pos_of_rel outer e.Query.l.Query.rel,
             e.Query.l.Query.col,
             pos_of_rel inner e.Query.r.Query.rel,
             e.Query.r.Query.col ))
         edges)
  in
  let rec conds_hold c i k =
    c >= Array.length conds
    ||
    let opos, ocol, ipos, icol = conds.(c) in
    let ov = cell ctx outer opos ocol i in
    ov <> Column.null_int
    && ov = cell ctx inner ipos icol k
    && conds_hold (c + 1) i k
  in
  let pairs = new_pairs () in
  let rescan = U.nl_rescan ~inner_rows:inner.nrows in
  for i = 0 to outer.nrows - 1 do
    spend ctx rescan;
    for k = 0 to inner.nrows - 1 do
      if conds_hold 0 i k then record pairs i k
    done
  done;
  gather outer (Tuples inner) pairs

(* Cuttlefish-style adaptive operator selection (paper SS II-D): once the
   outer input's true size is known, a nested-loop-family join whose outer
   blew through its estimate is demoted to a hash join. Join ORDER stays
   fixed -- the limitation the paper notes for adaptive processing. *)
let adaptive_switch_factor = 8.0

(* [exec] returns the node's output and the peak resident row-slots while
   its subtree ran. *)
let rec exec ctx node =
  match node with
  | Plan.Scan s ->
    let inter = scan_node ctx s in
    observe ctx node inter "Scan";
    (inter, slots inter)
  | Plan.Join j ->
    let outer, outer_mem = exec ctx j.Plan.outer in
    let algo =
      match j.Plan.algo with
      | (Plan.Index_nl _ | Plan.Nested_loop)
        when ctx.adaptive
             && float_of_int outer.nrows
                > adaptive_switch_factor *. Plan.est_rows j.Plan.outer ->
        ctx.switches <- ctx.switches + 1;
        Metrics.incr "exec.switches";
        Plan.Hash_join
      | algo -> algo
    in
    let inter, mem =
      match algo with
      | Plan.Hash_join | Plan.Nested_loop ->
        let inner, inner_mem = exec ctx j.Plan.inner in
        let join = if algo = Plan.Hash_join then hash_join else nested_loop in
        let inter = join ctx j outer inner in
        ( inter,
          U.join_peak algo ~outer_mem ~outer_slots:(slots outer) ~inner_mem
            ~inner_slots:(slots inner) ~inner_rows:inner.nrows
            ~out_slots:(slots inter) )
      | Plan.Index_nl { inner_col } ->
        let inter = index_nl ctx j outer (Plan.probed_rel j) inner_col in
        ( inter,
          U.pipelined_peak ~outer_mem ~outer_slots:(slots outer)
            ~out_slots:(slots inter) )
    in
    observe ctx node inter (Plan.algo_name algo);
    (inter, mem)

let make_ctx ?work_budget ?deadline_ms ?(adaptive = false) ~catalog ~query () =
  let tables =
    Array.map
      (fun (r : Query.rel) -> Catalog.table_exn catalog r.Query.table)
      query.Query.rels
  in
  {
    catalog;
    q = query;
    tables;
    filters =
      Array.mapi
        (fun rel tbl ->
          Predicate.compile_filter tbl (Query.preds_of_cols query rel))
        tables;
    work = 0;
    budget = work_budget;
    deadline_ms;
    next_deadline_check = initial_deadline_stride;
    deadline_stride = initial_deadline_stride;
    start = Clock.now_ms ();
    obs = [];
    adaptive;
    switches = 0;
  }

let eval_aggs ctx inter =
  let fold_col (cr : Query.colref) init f =
    let pos = pos_of_rel inter cr.Query.rel in
    let tbl = ctx.tables.(inter.rels.(pos)) in
    let acc = ref init in
    for i = 0 to inter.nrows - 1 do
      let rowid = inter.data.((i * inter.width) + pos) in
      acc := f !acc (Table.value tbl ~row:rowid ~col:cr.Query.col)
    done;
    !acc
  in
  let extreme cr keep =
    fold_col cr Value.Null (fun best v ->
        if Value.is_null v then best
        else
          match best with
          | Value.Null -> v
          | b -> if keep (Value.compare v b) then v else b)
  in
  List.map
    (fun agg ->
      match agg with
      | Query.Count_star -> Value.Int inter.nrows
      | Query.Count_col cr ->
        Value.Int
          (fold_col cr 0 (fun acc v -> if Value.is_null v then acc else acc + 1))
      | Query.Min_col cr -> extreme cr (fun c -> c < 0)
      | Query.Max_col cr -> extreme cr (fun c -> c > 0)
      | Query.Sum_col cr ->
        Value.Int
          (fold_col cr 0 (fun acc v ->
               match v with
               | Value.Int i -> acc + i
               | Value.Null -> acc
               | Value.Str _ -> invalid_arg "SUM over a string column")))
    ctx.q.Query.select

let execute ?work_budget ?deadline_ms ?adaptive ~catalog ~query plan =
  let ctx = make_ctx ?work_budget ?deadline_ms ?adaptive ~catalog ~query () in
  let inter, peak = exec ctx plan in
  let aggs = eval_aggs ctx inter in
  Metrics.incr "exec.queries";
  Metrics.incr ~by:ctx.work "exec.work";
  Metrics.observe "exec.peak_rows" (float_of_int peak);
  {
    aggs;
    out_rows = inter.nrows;
    work = ctx.work;
    peak_rows = peak;
    elapsed_ms = elapsed_ms ctx;
    observations = List.rev ctx.obs;
    switches = ctx.switches;
  }

type materialization = {
  mat_rows : Value.t array list;
  mat_work : int;
  mat_peak_rows : int;
  mat_elapsed_ms : float;
}

let materialize ?work_budget ?deadline_ms ~catalog ~query ~cols plan =
  let ctx = make_ctx ?work_budget ?deadline_ms ~catalog ~query () in
  let inter, mem = exec ctx plan in
  (* The projected temp-table rows are built beside the final
     intermediate: one slot per projected cell. *)
  let peak =
    U.pipelined_peak ~outer_mem:mem ~outer_slots:(slots inter)
      ~out_slots:(U.slots ~rows:inter.nrows ~width:(List.length cols))
  in
  let sources =
    Array.of_list
      (List.map (fun (cr : Query.colref) -> (pos_of_rel inter cr.Query.rel, cr.Query.col)) cols)
  in
  let rows = ref [] in
  for i = inter.nrows - 1 downto 0 do
    let row =
      Array.map
        (fun (pos, col) ->
          let rowid = inter.data.((i * inter.width) + pos) in
          Table.value ctx.tables.(inter.rels.(pos)) ~row:rowid ~col)
        sources
    in
    rows := row :: !rows
  done;
  Metrics.incr ~by:ctx.work "exec.work";
  { mat_rows = !rows; mat_work = ctx.work; mat_peak_rows = peak;
    mat_elapsed_ms = elapsed_ms ctx }
