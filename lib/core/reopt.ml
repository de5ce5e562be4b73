module Relset = Rdb_util.Relset
module Stat_utils = Rdb_util.Stat_utils
module Query = Rdb_query.Query
module Eq_classes = Rdb_query.Eq_classes
module Oracle = Rdb_card.Oracle
module Plan = Rdb_plan.Plan
module Executor = Rdb_exec.Executor
module Trace = Rdb_obs.Trace
module Metrics = Rdb_obs.Metrics

type step = {
  materialized_set : Relset.t;
  materialized_aliases : string list;
  temp_name : string;
  temp_rows : int;
  trigger_q_error : float;
  trigger_est : float;
  mat_ms : float;
  mat_work : int;
  replan_ms : float;
  query_after : Query.t;
}

type outcome = {
  steps : step list;
  final_query : Query.t;
  final_plan : Plan.t;
  final_exec : Executor.result;
  initial_plan_ms : float;
  total_plan_ms : float;
  total_exec_ms : float;
  total_work : int;
  peak_rows : int;
}

let inside set (cr : Query.colref) = Relset.mem cr.Query.rel set

(* The classes the materialized sub-join's internal equi-joins force to be
   equal: the temp table exposes a single column per class, as in the
   paper's Fig. 6 where one movie_id column replaces k.id/mk.keyword_id
   chains. *)
let inner_classes (q : Query.t) set =
  Eq_classes.make (Query.edges_within q set)

let needed_cols (q : Query.t) set =
  let classes = inner_classes q set in
  let referenced = ref [] in
  let add cr = referenced := Eq_classes.repr classes cr :: !referenced in
  List.iter
    (fun { Query.l; r } ->
      if inside set l && not (inside set r) then add l;
      if inside set r && not (inside set l) then add r)
    q.Query.edges;
  List.iter
    (function
      | Query.Count_star -> ()
      | Query.Count_col cr | Query.Min_col cr | Query.Max_col cr
      | Query.Sum_col cr ->
        if inside set cr then add cr)
    q.Query.select;
  let cols = List.sort_uniq compare !referenced in
  match cols with
  | [] ->
    (* Nothing outside needs a column — e.g. the whole query was
       materialized under a COUNT aggregate. Expose one arbitrary column so
       the temp table has a schema. *)
    let rel = Relset.min_elt set in
    [ { Query.rel; col = 0 } ]
  | _ -> cols

(* The relations a rewrite keeps, in order: those outside [set]. *)
let outside (q : Query.t) set =
  List.filter
    (fun i -> not (Relset.mem i set))
    (List.init (Query.n_rels q) Fun.id)

let rewrite (q : Query.t) ~set ~temp_name ~temp_cols =
  let n = Query.n_rels q in
  let classes = inner_classes q set in
  let keep = outside q set in
  let remap = Array.make n (-1) in
  List.iteri (fun new_idx old_idx -> remap.(old_idx) <- new_idx) keep;
  let temp_idx = List.length keep in
  let temp_pos cr =
    let canonical = Eq_classes.repr classes cr in
    let rec scan i = function
      | [] -> invalid_arg "Reopt.rewrite: column not materialized"
      | c :: rest -> if c = canonical then i else scan (i + 1) rest
    in
    scan 0 temp_cols
  in
  let map_colref (cr : Query.colref) =
    if inside set cr then { Query.rel = temp_idx; col = temp_pos cr }
    else { Query.rel = remap.(cr.Query.rel); col = cr.Query.col }
  in
  let rels =
    Array.append
      (Array.of_list (List.map (fun i -> q.Query.rels.(i)) keep))
      [| { Query.alias = temp_name; table = temp_name } |]
  in
  let preds =
    List.filter_map
      (fun ({ Query.target; p } : Query.pred) ->
        if inside set target then None
        else Some { Query.target = map_colref target; p })
      q.Query.preds
  in
  let edges =
    List.filter_map
      (fun { Query.l; r } ->
        if inside set l && inside set r then None
        else
          let l = map_colref l and r = map_colref r in
          (* Orient crossing edges with the temp table on the left: two
             original edges whose inside endpoints collapse to the same
             temp column reappear with opposite orientations, and a
             duplicated join condition double-counts its selectivity. *)
          if r.Query.rel = temp_idx && l.Query.rel <> temp_idx then
            Some { Query.l = r; r = l }
          else Some { Query.l; r })
      q.Query.edges
  in
  (* Crossing edges collapsed to the same temp column against the same
     outside column become duplicates; keep one of each. *)
  let edges = List.sort_uniq compare edges in
  let select =
    List.map
      (function
        | Query.Count_star -> Query.Count_star
        | Query.Count_col cr -> Query.Count_col (map_colref cr)
        | Query.Min_col cr -> Query.Min_col (map_colref cr)
        | Query.Max_col cr -> Query.Max_col (map_colref cr)
        | Query.Sum_col cr -> Query.Sum_col (map_colref cr))
      q.Query.select
  in
  { Query.name = q.Query.name ^ "+"; rels; preds; edges; select }

(* The first join in [Plan.trigger_order] whose Q-error trips the trigger.
   Joins later in the order are never priced: a trip among the small joins
   spares the oracle the large sub-joins, whose messages span the most
   relations. *)
let find_trigger prepared plan (trigger : Trigger.t) =
  let oracle = Session.oracle prepared in
  List.find_map
    (fun ((j : Plan.join), set) ->
      let est = j.Plan.join_est in
      let actual = float_of_int (Oracle.true_card oracle set) in
      if Trigger.fires trigger ~est ~actual then
        Some (j, set, est, Stat_utils.q_error ~est ~actual)
      else None)
    (Plan.trigger_order plan)

let temp_schema session (q : Query.t) temp_cols =
  let catalog = Session.catalog session in
  Schema.make
    (List.mapi
       (fun i (cr : Query.colref) ->
         let tbl = Catalog.table_exn catalog q.Query.rels.(cr.Query.rel).Query.table in
         let src = Schema.column (Table.schema tbl) cr.Query.col in
         { Schema.name = Printf.sprintf "c%d" i; ty = src.Schema.ty })
       temp_cols)

let run ?(checks = Checks.env ()) ?work_budget ?deadline_ms ?(cleanup = true)
    ?(max_steps = 32) ?initial session ~trigger ~mode q0 =
  let feedback = Session.feedback session in
  (* Rewrites renumber relations and splice in temp tables, so an
     observation on the rewritten query must not be keyed against it
     verbatim: [origin.(i)] is the set of q0's relations that rewritten
     relation [i] stands for, composed across steps. A temp relation maps
     to the union of the origins of what it materialized, so every
     observation — including each step's own temp_rows — lands on an
     original-query signature over base tables. *)
  let map_set origin s =
    Relset.fold (fun i acc -> Relset.union origin.(i) acc) s Relset.empty
  in
  let learn_card origin set rows =
    match feedback with
    | None -> ()
    | Some fb ->
      Feedback.observe_card fb ~catalog:(Session.catalog session) q0
        (map_set origin set) rows
  in
  let learn_exec origin (res : Executor.result) =
    match feedback with
    | None -> ()
    | Some fb ->
      List.iter
        (fun (obs : Executor.node_obs) ->
          Feedback.observe_card fb ~catalog:(Session.catalog session) q0
            (map_set origin obs.Executor.obs_set)
            obs.Executor.obs_actual)
        res.Executor.observations
  in
  let temp_names = ref [] in
  (* Observed peak resident row-slots across the whole re-opt run: every
     phase (materialization or final execution) runs with the temp tables
     of earlier steps still live — one cell per row per column, the same
     unit as [Executor.result.peak_rows] — so the run's peak is the max
     over phases of (live temp cells + the phase executor's peak). *)
  let live_slots = ref 0 in
  let peak = ref 0 in
  let rec loop ?carry q origin steps plan_times step_count =
    let prepared =
      match initial with
      | Some p when step_count = 0 && Session.query p == q -> p
      | Some _ | None -> Session.prepare ?carry session q
    in
    let plan, pstats, _estimator =
      if step_count = 0 then Session.plan ~checks prepared ~mode
      else
        Trace.span "reopt.replan"
          ~attrs:[ ("query", q.Query.name) ]
          (fun () -> Session.plan ~checks prepared ~mode)
    in
    let plan_times = pstats.Rdb_plan.Optimizer.plan_ms :: plan_times in
    let trigger_hit =
      if step_count >= max_steps then None else find_trigger prepared plan trigger
    in
    match trigger_hit with
    | None ->
      let final_exec =
        Trace.span "reopt.execute"
          ~attrs:[ ("query", q.Query.name) ]
          (fun () ->
            (* learn:false — the session would key observations against
               the rewritten query; learn_exec re-keys them below. *)
            Session.execute ?work_budget ?deadline_ms ~learn:false prepared
              plan)
      in
      learn_exec origin final_exec;
      peak := Int.max !peak (!live_slots + final_exec.Executor.peak_rows);
      (q, plan, final_exec, List.rev steps, List.rev plan_times)
    | Some (jnode, set, est, q_err) ->
      let temp_cols = needed_cols q set in
      let aliases = Query.aliases q set in
      let mat =
        Trace.span "reopt.materialize"
          ~attrs:
            [ ("query", q.Query.name); ("set", String.concat "," aliases) ]
          (fun () ->
            Executor.materialize ?work_budget ?deadline_ms
              ~catalog:(Session.catalog session) ~query:q ~cols:temp_cols
              (Plan.Join jnode))
      in
      peak := Int.max !peak (!live_slots + mat.Executor.mat_peak_rows);
      let temp_name = Session.fresh_temp_name session in
      temp_names := temp_name :: !temp_names;
      let schema = temp_schema session q temp_cols in
      let table =
        Table.of_rows ~name:temp_name ~schema mat.Executor.mat_rows
      in
      (* registered in temp_names just above, so the outer match drops it:
         @cleanup_ok cleanup_temps runs on both exits of [run] below *)
      Catalog.add_table (Session.catalog session) table;
      live_slots := !live_slots + (Table.nrows table * List.length temp_cols);
      Trace.span "reopt.analyze"
        ~attrs:[ ("table", temp_name) ]
        (fun () -> Session.analyze_table session temp_name);
      Metrics.incr "reopt.steps";
      Metrics.incr ~by:(Table.nrows table) "reopt.temp_rows";
      let q' = rewrite q ~set ~temp_name ~temp_cols in
      (* The rewrite is exactly where silent invariant breakage (dangling
         aliases, predicates on materialized-away columns, a changed
         meaning) turns into wrong answers: check it with the temp table
         bound. *)
      Checks.step checks ~catalog:(Session.catalog session) ~original:q ~set
        ~temp_cols ~temp_name q';
      let step =
        {
          materialized_set = set;
          materialized_aliases = aliases;
          temp_name;
          temp_rows = Table.nrows table;
          trigger_q_error = q_err;
          trigger_est = est;
          mat_ms = mat.Executor.mat_elapsed_ms;
          mat_work = mat.Executor.mat_work;
          replan_ms = 0.0;
          query_after = q';
        }
      in
      (* The materialization just paid for a true cardinality; remember it
         under the original query's signature. *)
      learn_card origin set (Table.nrows table);
      (* [rewrite] keeps the relations outside [set], in order, with their
         tables and predicates, and appends the temp relation. *)
      let keep = Array.of_list (outside q set @ [ -1 ]) in
      let origin' =
        Array.map
          (fun i -> if i >= 0 then origin.(i) else map_set origin set)
          keep
      in
      loop
        ~carry:(Session.oracle prepared, keep)
        q' origin' (step :: steps) plan_times (step_count + 1)
  in
  let cleanup_temps () = List.iter (Session.drop_temp session) !temp_names in
  match loop q0 (Array.init (Query.n_rels q0) Relset.singleton) [] [] 0 with
  | final_query, final_plan, final_exec, steps, plan_times ->
    if cleanup then cleanup_temps ();
    (* plan_times.(0) planned the original query; plan_times.(i) planned
       the SELECT that step i's rewrite produced. The loop plans exactly
       once per iteration and runs one iteration more than it steps, so
       the tails zip one-to-one. *)
    let steps =
      match plan_times with
      | [] -> assert false
      | _initial :: replans ->
        assert (List.compare_lengths replans steps = 0);
        List.map2 (fun s ms -> { s with replan_ms = ms }) steps replans
    in
    let mat_ms = List.fold_left (fun acc s -> acc +. s.mat_ms) 0.0 steps in
    let mat_work = List.fold_left (fun acc s -> acc + s.mat_work) 0 steps in
    {
      steps;
      final_query;
      final_plan;
      final_exec;
      initial_plan_ms =
        (match plan_times with ms :: _ -> ms | [] -> 0.0);
      total_plan_ms = List.fold_left ( +. ) 0.0 plan_times;
      total_exec_ms = mat_ms +. final_exec.Executor.elapsed_ms;
      total_work = mat_work + final_exec.Executor.work;
      peak_rows = !peak;
    }
  | exception e ->
    (* Unconditional even under ~cleanup:false: that flag means "let the
       caller inspect the temps of a *successful* run"; an aborted run
       (budget blown mid-materialization, verify failure) returns no step
       list, so the caller has no way to learn the temp names and the
       tables would be stranded in the catalog forever. *)
    cleanup_temps ();
    raise e
