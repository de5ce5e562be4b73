module Relset = Rdb_util.Relset
module Stat_utils = Rdb_util.Stat_utils
module Plan = Rdb_plan.Plan
module Explain = Rdb_plan.Explain
module Executor = Rdb_exec.Executor

let render ?trigger ?(bounds = false) prepared plan (res : Executor.result) =
  let q = Session.query prepared in
  let bound_interval =
    if not bounds then fun _ -> None
    else fun set ->
      let lo, hi = Rdb_verify.Card_bound.interval (Session.bounds prepared) set in
      Some (Printf.sprintf "bounds=[%.0f, %.0f]" lo hi)
  in
  (* Relation sets are unique within one plan tree, so they key both the
     executor's observations and the planned join algorithms. *)
  let obs_tbl : (Relset.t, Executor.node_obs) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (o : Executor.node_obs) -> Hashtbl.replace obs_tbl o.Executor.obs_set o)
    res.Executor.observations;
  let planned : (Relset.t, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (j : Plan.join) ->
      let set =
        Relset.union (Plan.rel_set j.Plan.outer) (Plan.rel_set j.Plan.inner)
      in
      Hashtbl.replace planned set (Plan.algo_name j.Plan.algo))
    (Plan.joins_bottom_up plan);
  let trigger_hit =
    match trigger with
    | None -> None
    | Some t ->
      (match Reopt.find_trigger prepared plan t with
       | Some (_, set, _, q_err) -> Some (set, q_err)
       | None -> None)
  in
  let notes set =
    let bound_note = Option.to_list (bound_interval set) in
    match Hashtbl.find_opt obs_tbl set with
    | None -> bound_note @ [ "(not executed)" ]
    | Some o ->
      let actual = float_of_int o.Executor.obs_actual in
      let base =
        Printf.sprintf "(actual rows=%d q-error=%.1f time=%.3fms)" o.Executor.obs_actual
          (Stat_utils.q_error ~est:o.Executor.obs_est ~actual)
          o.Executor.obs_ms
      in
      let switch =
        match Hashtbl.find_opt planned set with
        | Some name when not (String.equal name o.Executor.obs_label) ->
          [ Printf.sprintf "[adaptive switch: %s -> %s]" name o.Executor.obs_label ]
        | Some _ | None -> []
      in
      let trig =
        match trigger_hit with
        | Some (tset, q_err) when Relset.equal tset set ->
          [ Printf.sprintf "<= re-opt trigger (q-error %.0f)" q_err ]
        | Some _ | None -> []
      in
      (base :: bound_note) @ switch @ trig
  in
  Explain.render ~notes q plan
  ^ Printf.sprintf
      "\n%d rows into aggregates | work %d | peak %d row-slots | exec %.2fms \
       | adaptive switches %d\n"
      res.Executor.out_rows res.Executor.work res.Executor.peak_rows
      res.Executor.elapsed_ms res.Executor.switches
