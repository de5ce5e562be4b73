module Relset = Rdb_util.Relset
module Db_stats = Rdb_stats.Db_stats
module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Eq_classes = Rdb_query.Eq_classes

type mode =
  | Default
  | Perfect of int
  | Feedback of (Relset.t -> float option)
  | Sampling of Join_sample.t

type t = {
  mode : mode;
  q : Query.t;
  graph : Join_graph.t;
  catalog : Catalog.t;
  stats : Db_stats.t;
  oracle : Oracle.t option;
  bound : (Relset.t -> float -> float) option;
      (* sound-interval clamp (the verifier's "pessimistic" mode): applied
         to every memoized estimate before the 1-row floor *)
  memo : (Relset.t, float) Hashtbl.t;
  edges : Query.edge array;
  edge_sel : float array;
      (* [2k] and [2k+1]: the selectivity of edge k oriented as stated and
         flipped, nan until first asked for *)
  implied : (Query.colref, Value.t) Hashtbl.t;
      (* equality constants propagated through join equivalence classes,
         as PostgreSQL's equivalence-class machinery does: a predicate
         [c.id = 1] restricts every column joined (transitively) to c.id *)
}

(* Propagate [col = const] predicates to every column reachable through
   equi-join edges. The join clauses inside such a class become implied
   (selectivity 1): both sides are already restricted to the constant. *)
let compute_implied (q : Query.t) =
  let classes = Eq_classes.make q.Query.edges in
  let const_of_class = Array.make (Eq_classes.n_classes classes) None in
  List.iter
    (fun ({ Query.target; p } : Query.pred) ->
      match (p, Eq_classes.class_of classes target) with
      | ( Rdb_query.Predicate.Cmp (Rdb_query.Predicate.Eq, (Value.Int _ as v)),
          Some c ) ->
        const_of_class.(c) <- Some v
      | _ -> ())
    q.Query.preds;
  let implied = Hashtbl.create 16 in
  List.iter
    (fun (cr, c) -> Option.iter (Hashtbl.replace implied cr) const_of_class.(c))
    (Eq_classes.members classes);
  implied

let create ?bound ~mode ~catalog ~stats ?oracle q =
  (match mode, oracle with
   | Perfect _, None ->
     invalid_arg "Estimator.create: perfect modes require an oracle"
   | _ -> ());
  {
    mode;
    q;
    graph = Join_graph.make q;
    catalog;
    stats;
    oracle;
    bound;
    memo = Hashtbl.create 64;
    edges = Array.of_list q.Query.edges;
    edge_sel = Array.make (2 * List.length q.Query.edges) Float.nan;
    implied = compute_implied q;
  }

let mode t = t.mode
let db_stats t = t.stats
let oracle t = t.oracle
let memoized t = Hashtbl.fold (fun s _ acc -> s :: acc) t.memo []

let col_stats t rel col =
  let table = Catalog.table_exn t.catalog t.q.Query.rels.(rel).Query.table in
  Db_stats.col_or_trivial t.stats table col

let implied_preds t rel =
  let explicit = Query.preds_of_cols t.q rel in
  Hashtbl.fold
    (fun (cr : Query.colref) v acc ->
      if cr.Query.rel <> rel then acc
      else begin
        let p = Rdb_query.Predicate.Cmp (Rdb_query.Predicate.Eq, v) in
        (* skip when the query already states this exact restriction *)
        if List.exists (fun (col, p') -> col = cr.Query.col && p' = p) explicit
        then acc
        else (cr.Query.col, p) :: acc
      end)
    t.implied []

(* Combined selectivity of a relation's predicates. Pairs covered by
   column-group statistics (CORDS / CREATE STATISTICS) use the joint MCV
   distribution; everything else falls back to the independence product. *)
let combined_selectivity t rel preds =
  let table_name = t.q.Query.rels.(rel).Query.table in
  let single (col, p) = Selectivity.of_pred (col_stats t rel col) p in
  let rec go acc = function
    | [] -> acc
    | (col, p) :: rest ->
      let grouped =
        List.find_map
          (fun (col', p') ->
            match
              Rdb_stats.Db_stats.group t.stats ~table:table_name
                ~cols:(col, col')
            with
            | Some g -> Some (col', p', g)
            | None -> None)
          rest
      in
      (match grouped with
       | Some (col', p', g) ->
         let rest' = List.filter (fun (c, _) -> c <> col') rest in
         let independent = single (col, p) *. single (col', p') in
         let lo_pred, hi_pred = if col <= col' then (p, p') else (p', p) in
         let sel =
           Rdb_stats.Group_stats.joint_selectivity g
             (Rdb_query.Predicate.eval lo_pred)
             (Rdb_query.Predicate.eval hi_pred)
             ~independent
         in
         go (acc *. sel) rest'
       | None -> go (acc *. single (col, p)) rest)
  in
  go 1.0 preds

let base_default t rel =
  let stats_preds = Query.preds_of_cols t.q rel @ implied_preds t rel in
  let table = Catalog.table_exn t.catalog t.q.Query.rels.(rel).Query.table in
  let rows = float_of_int (Table.nrows table) in
  Float.max 1.0 (rows *. combined_selectivity t rel stats_preds)

(* The selectivity of edge [k] oriented from [l] to [r] ([slot] 2k) or
   from [r] to [l] ([slot] 2k+1), computed once. A join clause whose
   equivalence class is pinned to a constant is implied by the base
   restrictions on both sides: selectivity 1. *)
let edge_selectivity t k ~flip =
  let slot = (2 * k) + Bool.to_int flip in
  let sel = t.edge_sel.(slot) in
  if not (Float.is_nan sel) then sel
  else begin
    let { Query.l; r } = t.edges.(k) in
    let l, r = if flip then (r, l) else (l, r) in
    let sel =
      if Hashtbl.mem t.implied l then 1.0
      else
        Join_sel.eq_join
          (col_stats t l.Query.rel l.Query.col)
          (col_stats t r.Query.rel r.Query.col)
    in
    t.edge_sel.(slot) <- sel;
    sel
  end

let oracle_exn t =
  match t.oracle with
  | Some o -> o
  | None -> assert false

(* The default composition: peel the canonical removable relation and apply
   independent per-edge selectivities, so perfect sub-estimates propagate
   upward exactly as the paper's perfect-(n) does. *)
let rec card t s =
  match Hashtbl.find_opt t.memo s with
  | Some v -> v
  | None ->
    let v = compute t s in
    let v = match t.bound with Some f -> f s v | None -> v in
    let v = Float.max 1.0 v in
    Hashtbl.replace t.memo s v;
    v

and compute t s =
  let size = Relset.cardinal s in
  match t.mode with
  | Perfect n when size <= n -> float_of_int (Oracle.true_card (oracle_exn t) s)
  | Feedback lookup -> (
    (* Demand-driven: one store probe per memoized subset, so feedback
       costs O(DP work), never an eager sweep of every connected subset.
       Corrections compose upward through compute_default exactly like
       perfect-(n) sub-estimates do. *)
    match lookup s with
    | Some v -> v
    | None -> compute_default t s)
  | Sampling js -> Float.max 1.0 (Join_sample.card js s)
  | Default | Perfect _ -> compute_default t s

and compute_default t s =
  if Relset.cardinal s = 1 then base_default t (Relset.min_elt s)
  else begin
    let r = Join_graph.removable t.graph s in
    let rest = Relset.remove r s in
    (* The edges connecting [rest] to [r], in [q.edges] order, each
       oriented from [rest] to [r]. *)
    let sel = ref 1.0 in
    Array.iteri
      (fun k { Query.l; r = r' } ->
        if Relset.mem l.Query.rel rest && r'.Query.rel = r then
          sel := !sel *. edge_selectivity t k ~flip:false
        else if Relset.mem r'.Query.rel rest && l.Query.rel = r then
          sel := !sel *. edge_selectivity t k ~flip:true)
      t.edges;
    card t rest *. card t (Relset.singleton r) *. !sel
  end

let base_card t rel = card t (Relset.singleton rel)

let pred_selectivity t ~rel ~col p = Selectivity.of_pred (col_stats t rel col) p

let table_rows t rel =
  let table = Catalog.table_exn t.catalog t.q.Query.rels.(rel).Query.table in
  float_of_int (Table.nrows table)
