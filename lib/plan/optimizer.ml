module Relset = Rdb_util.Relset
module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Predicate = Rdb_query.Predicate
module Estimator = Rdb_card.Estimator
module Cost_model = Rdb_cost.Cost_model
module Clock = Rdb_obs.Clock

type stats = {
  pairs_considered : int;
  subsets_planned : int;
  plan_ms : float;
}

(* Cartesian products are unsupported (as in the paper's workload); a
   disconnected join graph is a query bug, so name the components to make
   the report actionable. *)
let check_connected graph (q : Query.t) =
  let n = Query.n_rels q in
  if n = 0 then invalid_arg "Optimizer: query with no relations";
  let full = Relset.full n in
  if not (Join_graph.is_connected graph full) then begin
    let render c =
      "{"
      ^ String.concat "," (Query.aliases q c)
      ^ "}"
    in
    let comps = Join_graph.components graph full in
    invalid_arg
      (Printf.sprintf
         "Optimizer: join graph of %s is disconnected (cartesian product); \
          components: %s"
         q.Query.name
         (String.concat " | " (List.map render comps)))
  end

(* Cheapest access path for a single relation: sequential scan, or an
   equality index scan seeded by one of its own predicates. *)
let scan_plan ~cp ~catalog ~estimator (q : Query.t) rel =
  let table = Catalog.table_exn catalog q.Query.rels.(rel).Query.table in
  let preds = Query.preds_of_cols q rel in
  let est = Estimator.base_card estimator rel in
  let seq_cost =
    Cost_model.seq_scan cp
      ~rows:(float_of_int (Table.nrows table))
      ~npreds:(List.length preds)
  in
  let best = ref (Plan.Seq_scan, seq_cost) in
  List.iter
    (fun (col, p) ->
      match p with
      | Predicate.Cmp (Predicate.Eq, Value.Int key) ->
        (match Catalog.index catalog ~table:(Table.name table) ~col with
         | Some _ ->
           let sel = Estimator.pred_selectivity estimator ~rel ~col p in
           let matches = Float.max 1.0 (Estimator.table_rows estimator rel *. sel) in
           let cost =
             Cost_model.index_scan cp ~matches ~npreds:(List.length preds - 1)
           in
           if cost < snd !best then
             best := (Plan.Index_scan { col; key }, cost)
         | None -> ())
      | _ -> ())
    preds;
  let access, cost = !best in
  Plan.Scan { Plan.scan_rel = rel; access; scan_est = est; scan_cost = cost }

(* Index-nested-loop applies when the inner side is a single base relation
   with a hash index on one of the connecting join columns; [indexed.(rel)]
   lists the indexed columns of relation [rel]'s table. *)
let inl_inner_col indexed inner_plan edges =
  match inner_plan with
  | Plan.Scan { Plan.scan_rel; _ } ->
    List.find_map
      (fun e ->
        let col = e.Query.r.Query.col in
        if List.mem col indexed.(scan_rel) then Some col else None)
      edges
  | Plan.Join _ -> None

module Memo = Hashtbl.Make (Relset)

(* One memo entry per planned subset: its best plan, the subset's output
   rows in every scenario (computed once, when the subset is first
   reached) and the plan's cost in every scenario, written in place. A
   subset is [priced] once its first candidate is recorded. *)
type entry = {
  rows : float array;
  mutable plan : Plan.t;
  costs : float array;
  mutable worst : float;
  mutable priced : bool;
}

(* A scenario scales every k-relation estimate by gamma^(k-1). Point
   planning is the single scenario gamma = 1; Rio-style robust planning
   (paper reference [8]) adds the optimistic and pessimistic 1/u and u
   and selects by worst-case cost. Either way the middle scenario is the
   point estimate itself ([Estimator.card] is floored at one row and
   1 ** k = 1), and its cost is the one a plan records. *)
let plan ?space ?uncertainty ~catalog ~estimator (q : Query.t) =
  let cp = Cost_model.default in
  let graph = Join_graph.make q in
  let n = Query.n_rels q in
  check_connected graph q;
  let space =
    match space with Some s -> s | None -> Search_space.build graph
  in
  let start = Clock.now_ms () in
  let gammas =
    match uncertainty with
    | None -> [| 1.0 |]
    | Some u -> [| 1.0 /. u; 1.0; u |]
  in
  let n_scen = Array.length gammas in
  let point = n_scen / 2 in
  let rows_of s =
    let card = Estimator.card estimator s in
    let k = float_of_int (Relset.cardinal s - 1) in
    Array.map (fun g -> Float.max 1.0 (card *. (g ** k))) gammas
  in
  (* Per-query tables, read by every pair: each edge in both orientations,
     each relation's indexed columns and its predicate count. *)
  let edges = Array.of_list q.Query.edges in
  let flipped =
    Array.map (fun { Query.l; r } -> { Query.l = r; r = l }) edges
  in
  let indexed =
    Array.map (fun (r : Query.rel) -> Catalog.indexes_on catalog r.Query.table)
      q.Query.rels
  in
  let npreds = Array.get (Query.pred_counts q) in
  let best = Memo.create 256 in
  for rel = 0 to n - 1 do
    let s = Relset.singleton rel in
    let plan = scan_plan ~cp ~catalog ~estimator q rel in
    let cost = Plan.cost plan in
    Memo.replace best s
      {
        rows = rows_of s;
        plan;
        costs = Array.make n_scen cost;
        worst = cost;
        priced = true;
      }
  done;
  let scratch = Array.make n_scen 0.0 in
  let pairs = ref 0 in
  Search_space.iter space (fun s1 s2 ->
      incr pairs;
      let su = Relset.union s1 s2 in
      let e1 = Memo.find best s1 and e2 = Memo.find best s2 in
      let eu =
        match Memo.find_opt best su with
        | Some e -> e
        | None ->
          let e =
            {
              rows = rows_of su;
              plan = e1.plan;
              costs = Array.make n_scen 0.0;
              worst = 0.0;
              priced = false;
            }
          in
          Memo.replace best su e;
          e
      in
      let consider eo ei edges algo =
        let worst = ref neg_infinity in
        for i = 0 to n_scen - 1 do
          let c =
            Plan.join_cost cp ~npreds algo ~inner:ei.plan ~edges
              ~outer_rows:eo.rows.(i) ~inner_rows:ei.rows.(i) ~out:eu.rows.(i)
              ~outer_cost:eo.costs.(i) ~inner_cost:ei.costs.(i)
          in
          scratch.(i) <- c;
          worst := Float.max !worst c
        done;
        if (not eu.priced) || !worst < eu.worst then begin
          eu.plan <-
            Plan.Join
              {
                Plan.algo;
                outer = eo.plan;
                inner = ei.plan;
                join_est = eu.rows.(point);
                join_cost = scratch.(point);
                join_edges = edges;
              };
          Array.blit scratch 0 eu.costs 0 n_scen;
          eu.worst <- !worst;
          eu.priced <- true
        end
      in
      let orient eo ei edges =
        consider eo ei edges Plan.Hash_join;
        consider eo ei edges Plan.Nested_loop;
        match inl_inner_col indexed ei.plan edges with
        | Some inner_col -> consider eo ei edges (Plan.Index_nl { inner_col })
        | None -> ()
      in
      (* The connecting edges in [q.edges] order, oriented from s1 to s2
         and from s2 to s1. *)
      let edges12 = ref [] and edges21 = ref [] in
      for k = Array.length edges - 1 downto 0 do
        let { Query.l; r } = edges.(k) in
        let l = l.Query.rel and r = r.Query.rel in
        if Relset.mem l s1 && Relset.mem r s2 then begin
          edges12 := edges.(k) :: !edges12;
          edges21 := flipped.(k) :: !edges21
        end
        else if Relset.mem r s1 && Relset.mem l s2 then begin
          edges12 := flipped.(k) :: !edges12;
          edges21 := edges.(k) :: !edges21
        end
      done;
      orient e1 e2 !edges12;
      orient e2 e1 !edges21);
  let elapsed = Clock.ms_since start in
  Rdb_obs.Metrics.incr "plan.built";
  Rdb_obs.Metrics.incr ~by:!pairs "plan.dp_pairs";
  Rdb_obs.Metrics.observe "plan.ms" elapsed;
  match Memo.find_opt best (Relset.full n) with
  | Some e ->
    ( e.plan,
      {
        pairs_considered = !pairs;
        subsets_planned = Memo.length best;
        plan_ms = elapsed;
      } )
  | None -> invalid_arg "Optimizer: no plan found for full relation set"
