module Relset = Rdb_util.Relset
module Stat_utils = Rdb_util.Stat_utils
module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Estimator = Rdb_card.Estimator
module Cost_model = Rdb_cost.Cost_model
module Interval = Rdb_cost.Interval
module Plan = Rdb_plan.Plan
module Optimizer = Rdb_plan.Optimizer
module Search_space = Rdb_plan.Search_space
module Metrics = Rdb_obs.Metrics

type envelope = Relset.t -> est:float -> float * float

let q_envelope factor =
  if not (factor >= 1.0) then
    invalid_arg "Sensitivity.q_envelope: factor must be >= 1";
  fun _ ~est -> (est /. factor, est *. factor)

let point_envelope f =
 fun s ~est:_ ->
  let v = f s in
  (v, v)

let of_intervals f = fun s ~est:_ -> f s

let intersect a b =
 fun s ~est ->
  let l1, h1 = a s ~est and l2, h2 = b s ~est in
  let lo = Float.max l1 l2 and hi = Float.min h1 h2 in
  if lo <= hi then (lo, hi)
  else begin
    let v = Stat_utils.clamp ~lo:l2 ~hi:h2 (Stat_utils.clamp ~lo:l1 ~hi:h1 est) in
    (v, v)
  end

(* Worst / best Q-error over an interval of possible actuals. q_error is
   monotone on either side of the estimate, so the worst case sits at an
   endpoint and the best case at the point of the interval closest to the
   estimate. *)
let worst_q ~est (lo, hi) =
  Float.max (Stat_utils.q_error ~est ~actual:lo) (Stat_utils.q_error ~est ~actual:hi)

let best_q ~est (lo, hi) =
  if lo <= est && est <= hi then 1.0
  else Float.min (Stat_utils.q_error ~est ~actual:lo) (Stat_utils.q_error ~est ~actual:hi)

type node = {
  node_set : Relset.t;
  node_est : float;
  node_interval : float * float;
  node_cost : Interval.t;
  node_is_join : bool;
}

type prediction = {
  pred_set : Relset.t;
  pred_aliases : string list;
  pred_est : float;
  pred_interval : float * float;
  pred_q_error : float;
  pred_certain : bool;
}

type fragility = {
  frag_set : Relset.t;
  frag_aliases : string list;
  frag_est : float;
  frag_interval : float * float;
  frag_q_error : float;
  frag_trips : bool;
  frag_flips : (float * string) option;
}

type report = {
  threshold : float;
  plan_shape : string;
  root_cost : Interval.t;
  nodes : node list;
  predicted : prediction option;
  fragilities : fragility list;
  cost_mismatches : (Relset.t * float * float) list;
}

(* One bottom-up walk computes, per node: the envelope interval on its true
   output rows, the interval of its subtree cost (Plan.join_cost at the
   all-lo and all-hi corners — exact because the rule is monotone in every
   input), and a point recomputation of the node's own cost from its
   children's *recorded* costs, which must agree with the recorded cost on
   an uncorrupted plan; the joins where it does not are collected in
   post-order. *)
let interp ~envelope (q : Query.t) plan =
  let cp = Cost_model.default in
  let npreds = Array.get (Query.pred_counts q) in
  let nodes = ref [] and mismatches = ref [] in
  let push n = nodes := n :: !nodes in
  let rec go p =
    match p with
    | Plan.Scan s ->
      let set = Relset.singleton s.Plan.scan_rel in
      let iv = envelope set ~est:s.Plan.scan_est in
      (* A scan's cost depends on physical row counts and index selectivity,
         not on the post-predicate estimate the envelope perturbs: the cost
         stays a point even when the output cardinality is uncertain. *)
      let cost = Interval.point s.Plan.scan_cost in
      push
        {
          node_set = set;
          node_est = s.Plan.scan_est;
          node_interval = iv;
          node_cost = cost;
          node_is_join = false;
        };
      (cost, iv)
    | Plan.Join j ->
      let o_cost, o_iv = go j.Plan.outer in
      let i_cost, i_iv = go j.Plan.inner in
      let set =
        Relset.union (Plan.rel_set j.Plan.outer) (Plan.rel_set j.Plan.inner)
      in
      let est = j.Plan.join_est in
      let out_iv = envelope set ~est in
      let box (lo, hi) = Interval.make lo hi in
      let o_rows = box o_iv and i_rows = box i_iv and out = box out_iv in
      let cost_at ~outer_rows ~inner_rows ~out ~outer_cost ~inner_cost =
        Plan.join_cost cp ~npreds j.Plan.algo ~inner:j.Plan.inner
          ~edges:j.Plan.join_edges ~outer_rows ~inner_rows ~out ~outer_cost
          ~inner_cost
      in
      let corner end_ =
        cost_at ~outer_rows:(end_ o_rows) ~inner_rows:(end_ i_rows)
          ~out:(end_ out) ~outer_cost:(end_ o_cost) ~inner_cost:(end_ i_cost)
      in
      let cost =
        {
          Interval.lo = corner (fun iv -> iv.Interval.lo);
          hi = corner (fun iv -> iv.Interval.hi);
        }
      and exact =
        cost_at ~outer_rows:(Plan.est_rows j.Plan.outer)
          ~inner_rows:(Plan.est_rows j.Plan.inner) ~out:est
          ~outer_cost:(Plan.cost j.Plan.outer)
          ~inner_cost:(Plan.cost j.Plan.inner)
      in
      let tol = 1e-6 *. Float.max 1.0 (Float.abs j.Plan.join_cost) in
      if Float.abs (j.Plan.join_cost -. exact) > tol then
        mismatches := (set, j.Plan.join_cost, exact) :: !mismatches;
      push
        {
          node_set = set;
          node_est = est;
          node_interval = out_iv;
          node_cost = cost;
          node_is_join = true;
        };
      (cost, out_iv)
  in
  let root_cost, _ = go plan in
  (root_cost, List.rev !nodes, List.rev !mismatches)

let predict_trigger ~envelope ~threshold (q : Query.t) plan =
  (* Mirror of Reopt.find_trigger: the first candidate in trigger order. *)
  List.find_map
    (fun ((j : Plan.join), set) ->
      let est = j.Plan.join_est in
      let lo, hi = envelope set ~est in
      let lo = Float.max lo 0.0 in
      if lo <= hi && worst_q ~est (lo, hi) >= threshold then
        Some
          {
            pred_set = set;
            pred_aliases = Query.aliases q set;
            pred_est = est;
            pred_interval = (lo, hi);
            pred_q_error = worst_q ~est (lo, hi);
            pred_certain = best_q ~est (lo, hi) >= threshold;
          }
      else None)
    (Plan.trigger_order plan)

(* Re-run the DP with the pinned subsets' estimates replaced. The bound hook
   intercepts exactly those subsets' memoized estimates; every other
   estimate reproduces the base estimator bit-for-bit, so a plan diff is
   attributable to the pinned cardinalities. *)
let replan ~space ~catalog ~estimator (q : Query.t) pins =
  let pinned =
    Estimator.create
      ~bound:(fun s v ->
        match List.find_opt (fun (s', _) -> Relset.equal s' s) pins with
        | Some (_, c) -> c
        | None -> v)
      ~mode:(Estimator.mode estimator) ~catalog
      ~stats:(Estimator.db_stats estimator)
      ?oracle:(Estimator.oracle estimator) q
  in
  let p, _stats = Optimizer.plan ~space ~catalog ~estimator:pinned q in
  p

let default_threshold = 32.0

let analyze ?envelope ?(threshold = default_threshold) ?(corner_replans = true)
    ?(corner_limit = max_int) ?space ~catalog ~estimator (q : Query.t) plan =
  Metrics.incr "analysis.sensitivity_runs";
  let envelope =
    match envelope with Some e -> e | None -> q_envelope threshold
  in
  let root_cost, nodes, cost_mismatches = interp ~envelope q plan in
  let predicted = predict_trigger ~envelope ~threshold q plan in
  let joins = List.filter (fun n -> n.node_is_join) nodes in
  (* Ration corner replans to the joins whose envelope admits the largest
     error: each replanned join costs two extra DP runs. *)
  let replanned_sets =
    if (not corner_replans) || joins = [] then []
    else begin
      let ranked =
        List.stable_sort
          (fun a b ->
            compare
              (worst_q ~est:b.node_est b.node_interval)
              (worst_q ~est:a.node_est a.node_interval))
          joins
      in
      let rec take k = function
        | [] -> []
        | _ when k <= 0 -> []
        | x :: tl -> x.node_set :: take (k - 1) tl
      in
      take corner_limit ranked
    end
  in
  let space =
    if replanned_sets = [] then space
    else
      Some
        (match space with
        | Some s -> s
        | None -> Search_space.build (Join_graph.make q))
  in
  let fragilities =
    List.map
      (fun n ->
        let est = n.node_est in
        let lo, hi = n.node_interval in
        let wq = worst_q ~est n.node_interval in
        let lo_t = Float.max lo 0.0 in
        let trips = lo_t <= hi && worst_q ~est (lo_t, hi) >= threshold in
        let flips =
          if not (List.exists (Relset.equal n.node_set) replanned_sets) then
            None
          else begin
            let space = Option.get space in
            let distinct_corners =
              List.filter
                (fun c ->
                  Float.abs (c -. est) > 1e-9 *. Float.max 1.0 (Float.abs est))
                (if Float.abs (hi -. lo) <= 1e-9 *. Float.max 1.0 hi then [ lo ]
                 else [ lo; hi ])
            in
            List.fold_left
              (fun found corner ->
                match found with
                | Some _ -> found
                | None ->
                  Metrics.incr "analysis.corner_replans";
                  let p' =
                    replan ~space ~catalog ~estimator q
                      [ (n.node_set, corner) ]
                  in
                  if Plan.same_shape plan p' then None
                  else Some (corner, Plan.shape q p'))
              None distinct_corners
          end
        in
        (match flips with
        | Some _ -> Metrics.incr "analysis.fragile_joins"
        | None -> ());
        {
          frag_set = n.node_set;
          frag_aliases = Query.aliases q n.node_set;
          frag_est = est;
          frag_interval = n.node_interval;
          frag_q_error = wq;
          frag_trips = trips;
          frag_flips = flips;
        })
      joins
  in
  {
    threshold;
    plan_shape = Plan.shape q plan;
    root_cost;
    nodes;
    predicted;
    fragilities;
    cost_mismatches;
  }

let fragile_sets report =
  List.filter_map
    (fun f -> match f.frag_flips with Some _ -> Some f.frag_set | None -> None)
    report.fragilities

let interval_str (lo, hi) = Interval.to_string { Interval.lo; hi }

let findings (q : Query.t) report =
  let fs = ref [] in
  let add f = fs := f :: !fs in
  List.iter
    (fun (set, recorded, recomputed) ->
      add
        (Finding.error ~code:"interval-cost-mismatch"
           (Printf.sprintf
              "join {%s}: recorded cost %.3f disagrees with the cost model's \
               %.3f at the plan's own estimates"
              (String.concat "," (Query.aliases q set))
              recorded recomputed)))
    report.cost_mismatches;
  List.iter
    (fun f ->
      match f.frag_flips with
      | None -> ()
      | Some (corner, shape) ->
        if f.frag_trips then
          add
            (Finding.warning ~code:"fragile-join"
               (Printf.sprintf
                  "join {%s} (est %s): at %s within envelope %s the \
                   DP-optimal plan changes to %s, and the error is large \
                   enough to trip re-optimization (worst q-error %.1f >= %g)"
                  (String.concat "," f.frag_aliases)
                  (Interval.rows_to_string f.frag_est)
                  (Interval.rows_to_string corner)
                  (interval_str f.frag_interval)
                  shape f.frag_q_error report.threshold))
        else
          add
            (Finding.warning ~code:"reopt-blind-spot"
               (Printf.sprintf
                  "join {%s} (est %s): at %s within envelope %s the \
                   DP-optimal plan changes to %s, but the worst q-error \
                   %.1f stays below the trigger threshold %g — \
                   re-optimization would never correct this plan"
                  (String.concat "," f.frag_aliases)
                  (Interval.rows_to_string f.frag_est)
                  (Interval.rows_to_string corner)
                  (interval_str f.frag_interval)
                  shape f.frag_q_error report.threshold)))
    report.fragilities;
  (match report.predicted with
  | None -> ()
  | Some p ->
    add
      (Finding.info ~code:"predicted-reopt-trigger"
         (Printf.sprintf
            "re-optimization %s trigger on join {%s}: est %s, envelope %s, \
             worst q-error %.1f >= %g"
            (if p.pred_certain then "will" else "may")
            (String.concat "," p.pred_aliases)
            (Interval.rows_to_string p.pred_est)
            (interval_str p.pred_interval)
            p.pred_q_error report.threshold)));
  if !fs = [] then
    add
      (Finding.info ~code:"plan-robust"
         (Printf.sprintf
            "plan %s is stable: no estimate within the q=%g envelope trips \
             re-optimization or changes the DP-optimal plan"
            report.plan_shape report.threshold));
  List.rev !fs

let check ?threshold ?corner_replans ?corner_limit ?space ~catalog ~estimator
    q plan =
  findings q
    (analyze ?threshold ?corner_replans ?corner_limit ?space ~catalog
       ~estimator q plan)
