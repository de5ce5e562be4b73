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
      ^ String.concat "," (List.map (Query.rel_alias q) (Relset.to_list c))
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
   with a hash index on one of the connecting join columns. *)
let inl_inner_col ~catalog (q : Query.t) inner_plan edges =
  match inner_plan with
  | Plan.Scan { Plan.scan_rel; _ } ->
    let table_name = q.Query.rels.(scan_rel).Query.table in
    List.find_map
      (fun e ->
        let col = e.Query.r.Query.col in
        match Catalog.index catalog ~table:table_name ~col with
        | Some _ -> Some col
        | None -> None)
      edges
  | Plan.Join _ -> None

let join_candidates ~cp ~catalog (q : Query.t) ~outer ~inner ~edges ~est =
  let outer_rows = Plan.est_rows outer and inner_rows = Plan.est_rows inner in
  let outer_cost = Plan.cost outer and inner_cost = Plan.cost inner in
  let hash =
    ( Plan.Hash_join,
      outer_cost +. inner_cost
      +. Cost_model.hash_join cp ~build:inner_rows ~probe:outer_rows ~out:est )
  in
  let nl =
    ( Plan.Nested_loop,
      outer_cost +. inner_cost
      +. Cost_model.nested_loop cp ~outer:outer_rows ~inner:inner_rows ~out:est )
  in
  let merge =
    ( Plan.Merge_join,
      outer_cost +. inner_cost
      +. Cost_model.merge_join cp ~outer:outer_rows ~inner:inner_rows ~out:est )
  in
  let inl =
    match inl_inner_col ~catalog q inner edges with
    | Some inner_col ->
      let inner_rel =
        match inner with
        | Plan.Scan s -> s.Plan.scan_rel
        | Plan.Join _ -> assert false
      in
      let npreds =
        List.length (Query.preds_of q inner_rel) + List.length edges - 1
      in
      [ ( Plan.Index_nl { inner_col },
          outer_cost +. Cost_model.index_nested_loop cp ~outer:outer_rows ~out:est ~npreds ) ]
    | None -> []
  in
  hash :: nl :: merge :: inl

let dp ?space ?(cost_params = Cost_model.default) ~catalog ~estimator (q : Query.t) =
  let cp = cost_params in
  let graph = Join_graph.make q in
  let n = Query.n_rels q in
  check_connected graph q;
  let space =
    match space with Some s -> s | None -> Search_space.build graph
  in
  let start = Clock.now_ms () in
  let best : (Relset.t, Plan.t) Hashtbl.t = Hashtbl.create 256 in
  for rel = 0 to n - 1 do
    Hashtbl.replace best (Relset.singleton rel)
      (scan_plan ~cp ~catalog ~estimator q rel)
  done;
  let pairs = ref 0 in
  Search_space.iter space (fun s1 s2 ->
      incr pairs;
      let su = Relset.union s1 s2 in
      let p1 = Hashtbl.find best s1 and p2 = Hashtbl.find best s2 in
      let est = Estimator.card estimator su in
      let consider ~outer ~inner ~edges =
        List.iter
          (fun (algo, cost) ->
            let better =
              match Hashtbl.find_opt best su with
              | Some current -> cost < Plan.cost current
              | None -> true
            in
            if better then
              Hashtbl.replace best su
                (Plan.Join
                   {
                     Plan.algo;
                     outer;
                     inner;
                     join_est = est;
                     join_cost = cost;
                     join_edges = edges;
                   }))
          (join_candidates ~cp ~catalog q ~outer ~inner ~edges ~est)
      in
      let edges12 = Query.edges_between q s1 s2 in
      let edges21 =
        List.map (fun { Query.l; r } -> { Query.l = r; r = l }) edges12
      in
      consider ~outer:p1 ~inner:p2 ~edges:edges12;
      consider ~outer:p2 ~inner:p1 ~edges:edges21);
  let elapsed = Clock.ms_since start in
  Rdb_obs.Metrics.incr "plan.built";
  Rdb_obs.Metrics.incr ~by:!pairs "plan.dp_pairs";
  Rdb_obs.Metrics.observe "plan.ms" elapsed;
  ( best,
    {
      pairs_considered = !pairs;
      subsets_planned = Hashtbl.length best;
      plan_ms = elapsed;
    } )

let plan ?space ?cost_params ~catalog ~estimator q =
  let best, stats = dp ?space ?cost_params ~catalog ~estimator q in
  match Hashtbl.find_opt best (Relset.full (Query.n_rels q)) with
  | Some p -> (p, stats)
  | None -> invalid_arg "Optimizer: no plan found for full relation set"

(* Rio-style robust DP: plans carry one cost per scenario; scenarios scale
   every k-relation join estimate by gamma^(k-1) for gamma in
   {1/u, 1, u}. Selection minimizes the worst-case cost. *)
let dp_robust ?space ?(cost_params = Cost_model.default) ~uncertainty ~catalog
    ~estimator (q : Query.t) =
  let cp = cost_params in
  let graph = Join_graph.make q in
  let n = Query.n_rels q in
  check_connected graph q;
  let space =
    match space with Some s -> s | None -> Search_space.build graph
  in
  let start = Clock.now_ms () in
  let gammas = [| 1.0 /. uncertainty; 1.0; uncertainty |] in
  let n_scen = Array.length gammas in
  let scenario_est su i =
    let k = Relset.cardinal su in
    Float.max 1.0
      (Estimator.card estimator su *. (gammas.(i) ** float_of_int (k - 1)))
  in
  (* best plan per subset, with its per-scenario cost vector *)
  let best : (Relset.t, Plan.t * float array) Hashtbl.t = Hashtbl.create 256 in
  for rel = 0 to n - 1 do
    let p = scan_plan ~cp ~catalog ~estimator q rel in
    Hashtbl.replace best (Relset.singleton rel)
      (p, Array.make n_scen (Plan.cost p))
  done;
  let worst costs = Array.fold_left Float.max neg_infinity costs in
  let pairs = ref 0 in
  Search_space.iter space (fun s1 s2 ->
      incr pairs;
      let su = Relset.union s1 s2 in
      let p1, c1 = Hashtbl.find best s1 and p2, c2 = Hashtbl.find best s2 in
      let point_est = Estimator.card estimator su in
      let consider ~outer ~inner ~outer_costs ~inner_costs ~o_set ~i_set ~edges =
        let algo_cost i algo =
          let o_rows = scenario_est o_set i and i_rows = scenario_est i_set i in
          let out = scenario_est su i in
          match algo with
          | Plan.Hash_join ->
            outer_costs.(i) +. inner_costs.(i)
            +. Cost_model.hash_join cp ~build:i_rows ~probe:o_rows ~out
          | Plan.Nested_loop ->
            outer_costs.(i) +. inner_costs.(i)
            +. Cost_model.nested_loop cp ~outer:o_rows ~inner:i_rows ~out
          | Plan.Merge_join ->
            outer_costs.(i) +. inner_costs.(i)
            +. Cost_model.merge_join cp ~outer:o_rows ~inner:i_rows ~out
          | Plan.Index_nl _ ->
            let inner_rel =
              match inner with
              | Plan.Scan s -> s.Plan.scan_rel
              | Plan.Join _ -> assert false
            in
            let npreds =
              List.length (Query.preds_of q inner_rel) + List.length edges - 1
            in
            outer_costs.(i)
            +. Cost_model.index_nested_loop cp ~outer:o_rows ~out ~npreds
        in
        let algos =
          Plan.Hash_join :: Plan.Nested_loop :: Plan.Merge_join
          ::
          (match inl_inner_col ~catalog q inner edges with
           | Some inner_col -> [ Plan.Index_nl { inner_col } ]
           | None -> [])
        in
        List.iter
          (fun algo ->
            let costs = Array.init n_scen (fun i -> algo_cost i algo) in
            let better =
              match Hashtbl.find_opt best su with
              | Some (_, current) -> worst costs < worst current
              | None -> true
            in
            if better then
              Hashtbl.replace best su
                ( Plan.Join
                    {
                      Plan.algo;
                      outer;
                      inner;
                      join_est = point_est;
                      join_cost = costs.(1);
                      join_edges = edges;
                    },
                  costs ))
          algos
      in
      let edges12 = Query.edges_between q s1 s2 in
      let edges21 =
        List.map (fun { Query.l; r } -> { Query.l = r; r = l }) edges12
      in
      consider ~outer:p1 ~inner:p2 ~outer_costs:c1 ~inner_costs:c2 ~o_set:s1
        ~i_set:s2 ~edges:edges12;
      consider ~outer:p2 ~inner:p1 ~outer_costs:c2 ~inner_costs:c1 ~o_set:s2
        ~i_set:s1 ~edges:edges21);
  let elapsed = Clock.ms_since start in
  Rdb_obs.Metrics.incr "plan.built";
  Rdb_obs.Metrics.incr ~by:!pairs "plan.dp_pairs";
  Rdb_obs.Metrics.observe "plan.ms" elapsed;
  ( best,
    {
      pairs_considered = !pairs;
      subsets_planned = Hashtbl.length best;
      plan_ms = elapsed;
    } )

let plan_robust ?space ?cost_params ~uncertainty ~catalog ~estimator q =
  let best, stats =
    dp_robust ?space ?cost_params ~uncertainty ~catalog ~estimator q
  in
  match Hashtbl.find_opt best (Relset.full (Query.n_rels q)) with
  | Some (p, _) -> (p, stats)
  | None -> invalid_arg "Optimizer: no robust plan found"

let best_cost_of_sets ?space ?cost_params ~catalog ~estimator q =
  let best, _ = dp ?space ?cost_params ~catalog ~estimator q in
  fun s -> Hashtbl.find_opt best s
