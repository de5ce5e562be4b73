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
  obs_ms : float;
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

(* An intermediate relation, factorized: each of its [nrows] tuples joins
   one row of every member of [rels] (in that order), yet no join copies a
   tuple. A scan holds its rowids; a join holds its two match vectors,
   whose [k]th entries name the outer tuple and the inner tuple (for an
   index NL, the inner relation's rowid) that output tuple [k] joins. A
   member's rowid column is composed through the vectors when an operator
   first reads it, and kept in [cols]. Match vectors may be longer than
   [nrows]; only their first [nrows] entries are meaningful. *)
type inter = {
  rels : int array;
  nrows : int;
  src : src;
  cols : int array array;  (* per member, [no_col] until composed *)
}

and src =
  | Scanned of int array
  | Joined of { outer : inter; inner : inner; outer_of : int array; inner_of : int array }

(* The inner side of a join: the tuples of an intermediate, or the rowids
   of one base relation probed through its index. *)
and inner = Tuples of inter | Rowids

let no_col : int array = [||]

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

let width inter = Array.length inter.rels

let slots inter = U.slots ~rows:inter.nrows ~width:(width inter)

let pos_of_rel inter rel =
  let rec scan i =
    if i >= width inter then invalid_arg "Executor: relation not in intermediate"
    else if inter.rels.(i) = rel then i
    else scan (i + 1)
  in
  scan 0

(* [src.(idx.(k))] for [k < n]: a member's rowids carried one join up. *)
let compose src idx n =
  let a = Array.make n 0 in
  for k = 0 to n - 1 do
    a.(k) <- src.(idx.(k))
  done;
  a

(* Member [p]'s rowid column: entry [i] is the rowid tuple [i] joins. *)
let rec rowids inter p =
  let c = inter.cols.(p) in
  if c != no_col || inter.nrows = 0 then c
  else begin
    let c =
      match inter.src with
      | Scanned rows -> rows
      | Joined { outer; inner; outer_of; inner_of } ->
        let ow = width outer in
        if p < ow then compose (rowids outer p) outer_of inter.nrows
        else (
          match inner with
          | Rowids -> inner_of
          | Tuples t -> compose (rowids t (p - ow)) inner_of inter.nrows)
    in
    inter.cols.(p) <- c;
    c
  end

let scanned rel rows =
  { rels = [| rel |]; nrows = Array.length rows; src = Scanned rows; cols = [| no_col |] }

(* The cells of an integer column (join keys always are). *)
let int_col ctx rel col =
  match Table.column ctx.tables.(rel) col with
  | Column.Ints a -> a
  | Column.Strs _ -> invalid_arg "Executor: join key on a string column"

(* The rowids of (rel, col)'s relation in an intermediate, and the column's
   cells: tuple [i]'s value is [cells.(rows.(i))]. *)
let key_of ctx inter (c : Query.colref) =
  (rowids inter (pos_of_rel inter c.Query.rel), int_col ctx c.Query.rel c.Query.col)

let observe ctx node inter label t0 =
  ctx.obs <-
    {
      obs_set = Plan.rel_set node;
      obs_est = Plan.est_rows node;
      obs_actual = inter.nrows;
      obs_label = label;
      obs_ms = Clock.ms_since t0;
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
        let b = Hash_index.find index key in
        let rows = Hash_index.rows index and starts = Hash_index.starts index in
        let lo, hi = if b < 0 then (0, 0) else (starts.(b), starts.(b + 1)) in
        spend ctx (U.lookup ~candidates:(hi - lo));
        for c = lo to hi - 1 do
          if keep rows.(c) then Int_vec.push out rows.(c)
        done));
  scanned rel (Int_vec.to_array out)

(* A join's matches in emission order: match [k] joins outer tuple
   [outer_of.(k)] with inner tuple (or rowid) [inner_of.(k)]. The vectors
   grow by doubling and become the output's match vectors as they are. *)
type matches = { mutable outer_of : int array; mutable inner_of : int array; mutable n : int }

let new_matches () = { outer_of = Array.make 1024 0; inner_of = Array.make 1024 0; n = 0 }

(* A plain copy loop: [Array.blit] into a major-heap array would take the
   write barrier per cell. *)
let grow m =
  let extend (a : int array) =
    let b = Array.make (2 * Array.length a) 0 in
    for k = 0 to m.n - 1 do
      b.(k) <- a.(k)
    done;
    b
  in
  m.outer_of <- extend m.outer_of;
  m.inner_of <- extend m.inner_of

let record m o i =
  if m.n = Array.length m.outer_of then grow m;
  m.outer_of.(m.n) <- o;
  m.inner_of.(m.n) <- i;
  m.n <- m.n + 1

let joined outer inner inner_rels m =
  let rels = Array.append outer.rels inner_rels in
  {
    rels;
    nrows = m.n;
    src = Joined { outer; inner; outer_of = m.outer_of; inner_of = m.inner_of };
    cols = Array.make (Array.length rels) no_col;
  }

(* A join's conditions between two intermediates, one per edge: the
   outer's rowids and key cells, then the inner's. *)
let conds ctx (j : Plan.join) outer inner =
  Array.of_list
    (List.map
       (fun e ->
         let orows, ocells = key_of ctx outer e.Query.l in
         let irows, icells = key_of ctx inner e.Query.r in
         (orows, ocells, irows, icells))
       j.Plan.join_edges)

(* Outer tuple [i] and inner tuple [k] meet conditions [c] onwards; NULL
   keys never match. *)
let rec conds_hold conds c i k =
  c >= Array.length conds
  ||
  let orows, ocells, irows, icells = conds.(c) in
  let ov = ocells.(orows.(i)) in
  ov <> Column.null_int && ov = icells.(irows.(k)) && conds_hold conds (c + 1) i k

(* Build a CSR table on the inner's first key column, probe it with the
   outer's, and check the further conditions on each candidate. Each
   bucket is walked newest first, so the matches of an outer tuple come in
   descending inner order. *)
let hash_join ctx (j : Plan.join) outer inner =
  let conds = conds ctx j outer inner in
  let orows, ocells, irows, icells = conds.(0) in
  spend ctx (U.hash_build ~inner_rows:inner.nrows);
  let table =
    Hash_index.of_keys (Array.init inner.nrows (fun k -> icells.(irows.(k))))
  in
  let bucket = Hash_index.rows table and starts = Hash_index.starts table in
  let m = new_matches () in
  spend ctx (U.probe ~outer_rows:outer.nrows);
  for i = 0 to outer.nrows - 1 do
    let b = Hash_index.find table ocells.(orows.(i)) in
    if b >= 0 then begin
      let before = m.n in
      for c = starts.(b + 1) - 1 downto starts.(b) do
        let k = bucket.(c) in
        if conds_hold conds 1 i k then record m i k
      done;
      spend ctx (emit_unit * (m.n - before))
    end
  done;
  joined outer (Tuples inner) inner.rels m

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
  let orows, ocells = key_of ctx outer key_edge.Query.l in
  let others =
    Array.of_list
      (List.map
         (fun e ->
           let orows, ocells = key_of ctx outer e.Query.l in
           (orows, ocells, int_col ctx inner_rel e.Query.r.Query.col))
         other_edges)
  in
  (* outer tuple [i] and inner row [row] agree on every non-key edge *)
  let rec others_hold e i row =
    e >= Array.length others
    ||
    let orows, ocells, icells = others.(e) in
    let ov = ocells.(orows.(i)) in
    ov <> Column.null_int && ov = icells.(row) && others_hold (e + 1) i row
  in
  let rows = Hash_index.rows index and starts = Hash_index.starts index in
  let m = new_matches () in
  spend ctx (U.probe ~outer_rows:outer.nrows);
  for i = 0 to outer.nrows - 1 do
    let b = Hash_index.find index ocells.(orows.(i)) in
    if b >= 0 then begin
      spend ctx (lookup_unit * (starts.(b + 1) - starts.(b)));
      for c = starts.(b) to starts.(b + 1) - 1 do
        let row = rows.(c) in
        if others_hold 0 i row && keep row then record m i row
      done
    end
  done;
  joined outer Rowids [| inner_rel |] m

let nested_loop ctx (j : Plan.join) outer inner =
  let conds = conds ctx j outer inner in
  let m = new_matches () in
  let rescan = U.nl_rescan ~inner_rows:inner.nrows in
  for i = 0 to outer.nrows - 1 do
    spend ctx rescan;
    for k = 0 to inner.nrows - 1 do
      if conds_hold conds 0 i k then record m i k
    done
  done;
  joined outer (Tuples inner) inner.rels m

(* Cuttlefish-style adaptive operator selection (paper SS II-D): once the
   outer input's true size is known, a nested-loop-family join whose outer
   blew through its estimate is demoted to a hash join. Join ORDER stays
   fixed -- the limitation the paper notes for adaptive processing. *)
let adaptive_switch_factor = 8.0

(* [exec] returns the node's output and the peak resident row-slots while
   its subtree ran. Each observation's time is the operator's own: it
   starts once the node's inputs are built. *)
let rec exec ctx node =
  match node with
  | Plan.Scan s ->
    let t0 = Clock.now_ms () in
    let inter = scan_node ctx s in
    observe ctx node inter "Scan" t0;
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
    let inter, mem, t0 =
      match algo with
      | Plan.Hash_join | Plan.Nested_loop ->
        let inner, inner_mem = exec ctx j.Plan.inner in
        let t0 = Clock.now_ms () in
        let join = if algo = Plan.Hash_join then hash_join else nested_loop in
        let inter = join ctx j outer inner in
        ( inter,
          U.join_peak algo ~outer_mem ~outer_slots:(slots outer) ~inner_mem
            ~inner_slots:(slots inner) ~inner_rows:inner.nrows
            ~out_slots:(slots inter),
          t0 )
      | Plan.Index_nl { inner_col } ->
        let t0 = Clock.now_ms () in
        let inter = index_nl ctx j outer (Plan.probed_rel j) inner_col in
        ( inter,
          U.pipelined_peak ~outer_mem ~outer_slots:(slots outer)
            ~out_slots:(slots inter),
          t0 )
    in
    observe ctx node inter (Plan.algo_name algo) t0;
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

(* The rowids of (rel, col)'s relation in the final intermediate, and the
   column. *)
let output_col ctx inter (cr : Query.colref) =
  (rowids inter (pos_of_rel inter cr.Query.rel), Table.column ctx.tables.(cr.Query.rel) cr.Query.col)

(* Aggregates read the typed cells; only the results are boxed. MIN and
   MAX keep [Value.compare]'s order: NULLs skipped, ints by value, strings
   by [String.compare]. *)
let eval_aggs ctx inter =
  let n = inter.nrows in
  let extreme cr better =
    match output_col ctx inter cr with
    | rows, Column.Ints a ->
      let best = ref Column.null_int in
      for i = 0 to n - 1 do
        let v = a.(rows.(i)) in
        if v <> Column.null_int && (!best = Column.null_int || better (Int.compare v !best))
        then best := v
      done;
      if !best = Column.null_int then Value.Null else Value.Int !best
    | rows, Column.Strs a ->
      if n = 0 then Value.Null
      else begin
        let best = ref a.(rows.(0)) in
        for i = 1 to n - 1 do
          let v = a.(rows.(i)) in
          if better (String.compare v !best) then best := v
        done;
        Value.Str !best
      end
  in
  List.map
    (fun agg ->
      match agg with
      | Query.Count_star -> Value.Int n
      | Query.Count_col cr ->
        (match output_col ctx inter cr with
         | rows, Column.Ints a ->
           let c = ref 0 in
           for i = 0 to n - 1 do
             if a.(rows.(i)) <> Column.null_int then incr c
           done;
           Value.Int !c
         | _, Column.Strs _ -> Value.Int n)
      | Query.Min_col cr -> extreme cr (fun c -> c < 0)
      | Query.Max_col cr -> extreme cr (fun c -> c > 0)
      | Query.Sum_col cr ->
        (match output_col ctx inter cr with
         | rows, Column.Ints a ->
           let s = ref 0 in
           for i = 0 to n - 1 do
             let v = a.(rows.(i)) in
             if v <> Column.null_int then s := !s + v
           done;
           Value.Int !s
         | _, Column.Strs _ ->
           if n > 0 then invalid_arg "SUM over a string column" else Value.Int 0))
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
  let sources = Array.of_list (List.map (output_col ctx inter) cols) in
  let value (rows, column) i =
    match column with
    | Column.Ints a ->
      let v = a.(rows.(i)) in
      if v = Column.null_int then Value.Null else Value.Int v
    | Column.Strs a -> Value.Str a.(rows.(i))
  in
  let rows = ref [] in
  for i = inter.nrows - 1 downto 0 do
    rows := Array.map (fun src -> value src i) sources :: !rows
  done;
  Metrics.incr ~by:ctx.work "exec.work";
  { mat_rows = !rows; mat_work = ctx.work; mat_peak_rows = peak;
    mat_elapsed_ms = elapsed_ms ctx }
