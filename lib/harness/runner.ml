module Query = Rdb_query.Query
module Session = Rdb_core.Session
module Trigger = Rdb_core.Trigger
module Reopt = Rdb_core.Reopt
module Estimator = Rdb_card.Estimator
module Oracle = Rdb_card.Oracle
module Executor = Rdb_exec.Executor
module Optimizer = Rdb_plan.Optimizer

type config =
  | Default
  | Perfect of int
  | Perfect_all
  | Reopt of float
  | Perfect_reopt of int * float
  | Sampling_est of int
  | Robust of float
  | Adaptive
  | Feedback_naive
  | Feedback_gated

let config_name = function
  | Default -> "default"
  | Perfect n -> Printf.sprintf "perfect-%d" n
  | Perfect_all -> "perfect-all"
  | Reopt thr -> Printf.sprintf "reopt-%g" thr
  | Perfect_reopt (n, thr) -> Printf.sprintf "perfect-%d+reopt-%g" n thr
  | Sampling_est size -> Printf.sprintf "sampling-%d" size
  | Robust u -> Printf.sprintf "robust-%g" u
  | Adaptive -> "adaptive"
  | Feedback_naive -> "feedback-naive"
  | Feedback_gated -> "feedback-gated"

let config_of_name s =
  match String.lowercase_ascii s with
  | "default" -> Some Default
  | "perfect" | "perfect-all" -> Some Perfect_all
  | "feedback" | "feedback-naive" -> Some Feedback_naive
  | "feedback-gated" -> Some Feedback_gated
  | s ->
    (match Scanf.sscanf s "perfect-%u%!" Fun.id with
     | n when n >= 1 -> Some (Perfect n)
     | _ -> None
     | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None)

type measurement = {
  m_query : string;
  m_rels : int;
  m_plan_ms : float;
  m_exec_ms : float;
  m_work : int;
  m_capped : bool;
  m_steps : int;
}

type lab = {
  session : Session.t;
  queries : Query.t list;
  (* @confined each lab is private to one domain; grid sharding clones it *)
  prepared : (string, Session.prepared) Hashtbl.t;
  (* @confined each lab is private to one domain; grid sharding clones it *)
  cache : (string * string, measurement) Hashtbl.t;
  work_budget : int;
  deadline_ms : float;
  scale : float;
}

let create_lab ?(feedback = Rdb_core.Feedback.create ()) ?(seed = 42)
    ?(scale = 1.0) ?(work_budget = 60_000_000) ?(deadline_ms = 4_000.0) () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~seed ~scale () in
  (* Every lab carries a feedback store: executions learn true
     cardinalities as they run, and the feedback configurations below
     plan from what has been learned. Estimation is unaffected unless a
     feedback configuration is asked for. *)
  let session = Session.create ~feedback catalog in
  Session.analyze session;
  let queries = Rdb_imdb.Job_queries.all catalog in
  {
    session;
    queries;
    prepared = Hashtbl.create 128;
    cache = Hashtbl.create 1024;
    work_budget;
    deadline_ms;
    scale;
  }

let session lab = lab.session
let queries lab = lab.queries
let scale lab = lab.scale
let work_budget lab = lab.work_budget
let deadline_ms lab = lab.deadline_ms

let query lab name =
  match List.find_opt (fun q -> String.equal q.Query.name name) lab.queries with
  | Some q -> q
  | None -> invalid_arg ("Runner.query: unknown query " ^ name)

let prepared_of lab q =
  match Hashtbl.find_opt lab.prepared q.Query.name with
  | Some p -> p
  | None ->
    let p = Session.prepare lab.session q in
    Hashtbl.replace lab.prepared q.Query.name p;
    p

let feedback lab =
  match Session.feedback lab.session with
  | Some fb -> fb
  | None -> invalid_arg "Runner.feedback: lab has no feedback store"

let rec mode_of_config lab q = function
  | Default | Reopt _ | Robust _ | Adaptive -> Estimator.Default
  | Feedback_naive -> Session.feedback_mode (prepared_of lab q) (feedback lab)
  | Feedback_gated ->
    Session.feedback_mode ~gated:true (prepared_of lab q) (feedback lab)
  | Sampling_est size ->
    Estimator.Sampling
      (Rdb_card.Join_sample.create ~sample_size:size
         (Session.oracle (prepared_of lab q)))
  | Perfect n | Perfect_reopt (n, _) ->
    Oracle.ensure_up_to (Session.oracle (prepared_of lab q)) n;
    Estimator.Perfect n
  | Perfect_all -> mode_of_config lab q (Perfect (Query.n_rels q))

(* A cell whose execution ran out of work budget. *)
let capped q ~plan_ms ~spent ~elapsed_ms =
  {
    m_query = q.Query.name;
    m_rels = Query.n_rels q;
    m_plan_ms = plan_ms;
    m_exec_ms = elapsed_ms;
    m_work = spent;
    m_capped = true;
    m_steps = 0;
  }

let measure_plain lab config q =
  let prepared = prepared_of lab q in
  let mode = mode_of_config lab q config in
  let uncertainty = match config with Robust u -> Some u | _ -> None in
  let plan, pstats, _ = Session.plan ?uncertainty prepared ~mode in
  try
    let adaptive = match config with Adaptive -> true | _ -> false in
    let res =
      Session.execute ~work_budget:lab.work_budget
        ~deadline_ms:lab.deadline_ms ~adaptive prepared plan
    in
    {
      m_query = q.Query.name;
      m_rels = Query.n_rels q;
      m_plan_ms = pstats.Optimizer.plan_ms;
      m_exec_ms = res.Executor.elapsed_ms;
      m_work = res.Executor.work;
      m_capped = false;
      m_steps = 0;
    }
  with Executor.Work_budget_exceeded { spent; elapsed_ms } ->
    capped q ~plan_ms:pstats.Optimizer.plan_ms ~spent ~elapsed_ms

let measure_reopt lab config q threshold =
  let prepared = prepared_of lab q in
  let mode = mode_of_config lab q config in
  let trigger = Trigger.create threshold in
  let outcome =
    Reopt.run ~work_budget:lab.work_budget ~deadline_ms:lab.deadline_ms
      ~initial:prepared lab.session ~trigger ~mode q
  in
  {
    m_query = q.Query.name;
    m_rels = Query.n_rels q;
    m_plan_ms = outcome.Reopt.total_plan_ms;
    m_exec_ms = outcome.Reopt.total_exec_ms;
    m_work = outcome.Reopt.total_work;
    m_capped = false;
    m_steps = List.length outcome.Reopt.steps;
  }

let run_query lab config q =
  let key = (config_name config, q.Query.name) in
  match Hashtbl.find_opt lab.cache key with
  | Some m -> m
  | None ->
    let m =
      Rdb_obs.Trace.span "runner.cell"
        ~attrs:[ ("config", config_name config); ("query", q.Query.name) ]
        (fun () ->
          (* A budget blowup anywhere in a cell — a re-optimization's
             materialization, a planning-time sampling probe — must cap
             that one cell, never abort the whole sweep. *)
          try
            match config with
            | Default | Perfect _ | Perfect_all | Sampling_est _ | Robust _
            | Adaptive | Feedback_naive | Feedback_gated ->
              measure_plain lab config q
            | Reopt thr | Perfect_reopt (_, thr) ->
              measure_reopt lab config q thr
          with Executor.Work_budget_exceeded { spent; elapsed_ms } ->
            capped q ~plan_ms:0.0 ~spent ~elapsed_ms)
    in
    Hashtbl.replace lab.cache key m;
    m

let run_workload lab config =
  List.map (fun q -> run_query lab config q) lab.queries

(* ---- domain-parallel grid driving ---- *)

(* A worker's private lab: a cloned session over the shared immutable
   tables and statistics (no re-ANALYZE), fresh prepared/measurement
   caches. Clones exist because cells mutate their session: Reopt.run
   creates temp tables and Session caches per-query oracles. *)
let clone_lab lab =
  {
    session = Session.with_stats_of lab.session;
    queries = lab.queries;
    prepared = Hashtbl.create 128;
    cache = Hashtbl.create 256;
    work_budget = lab.work_budget;
    deadline_ms = lab.deadline_ms;
    scale = lab.scale;
  }

let run_grid ?(jobs = 1) ?queries lab configs =
  let queries = match queries with Some qs -> qs | None -> lab.queries in
  let todo =
    List.concat_map
      (fun config ->
        List.filter_map
          (fun q ->
            if Hashtbl.mem lab.cache (config_name config, q.Query.name) then
              None
            else Some (config, q))
          queries)
      configs
  in
  (match todo with
   | [] -> ()
   | _ when jobs <= 1 ->
     List.iter (fun (config, q) -> ignore (run_query lab config q)) todo
   | _ ->
     (* Shard cells across the pool. Every measurement that matters is
        deterministic (work units, caps, re-opt steps), each cell runs on
        a domain-private lab, and the merge below is keyed by
        (config, query) — so the grid is byte-identical to the sequential
        run regardless of worker count or scheduling (wall-clock fields
        aside). *)
     let mu = Mutex.create () in
     (* @guarded_by mu *)
     let labs : (int, lab) Hashtbl.t = Hashtbl.create jobs in
     let worker_lab () =
       let id = (Domain.self () :> int) in
       Mutex.protect mu (fun () ->
           match Hashtbl.find_opt labs id with
           | Some l -> l
           | None ->
             let l = clone_lab lab in
             Hashtbl.replace labs id l;
             l)
     in
     let results =
       Rdb_util.Pool.with_pool jobs (fun pool ->
           (* a cell exception is recorded in its future, not lost:
              @swallow_ok Pool.map re-raises it at the await, on this domain *)
           Rdb_util.Pool.map pool
             (fun (config, q) ->
               ( (config_name config, q.Query.name),
                 run_query (worker_lab ()) config q ))
             (Array.of_list todo))
     in
     Array.iter (fun (key, m) -> Hashtbl.replace lab.cache key m) results);
  List.map
    (fun config ->
      (config, List.map (fun q -> run_query lab config q) queries))
    configs

let total_exec_ms ms = List.fold_left (fun acc m -> acc +. m.m_exec_ms) 0.0 ms
let total_plan_ms ms = List.fold_left (fun acc m -> acc +. m.m_plan_ms) 0.0 ms
