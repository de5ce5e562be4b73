(* The two JOB workloads: one closed-loop client sends the workload's SQL
   texts, pass after pass, each pass in a seeded order.

   job-default: parse, bind, prepare, plan (Default), execute — the
   paper's baseline, where the executor dominates.
   job-reopt32: parse, bind, then the re-optimization loop at threshold 32
   — the paper's mechanism: trigger, materialize, temp ANALYZE, replan.
   Untraced it calls [Reopt.run]; traced it unrolls the loop through the
   same public calls, so each step is timed as its own layer, and checks
   every query against [Reopt.run]. *)

module Session = Rdb_core.Session
module Reopt = Rdb_core.Reopt
module Trigger = Rdb_core.Trigger
module Estimator = Rdb_card.Estimator
module Executor = Rdb_exec.Executor
module Plan = Rdb_plan.Plan
module Query = Rdb_query.Query
module Metrics = Rdb_obs.Metrics
module Json = Rdb_obs.Json

type mode = Default | Reopt32

let name = function Default -> "job-default" | Reopt32 -> "job-reopt32"

(* What one query's run produced. *)
type run = {
  aggs : Value.t list;
  work : int;  (** executor work, materializations excluded *)
  mat_work : int;
  temp_rows : int list;  (** one per re-optimization step *)
}

let run_default (db : Db.t) q =
  let p = Span.time "core.session" (fun () -> Session.prepare db.session q) in
  let plan, _, _ =
    Span.time "plan.optimizer" (fun () -> Session.plan p ~mode:Estimator.Default)
  in
  let res =
    Span.time "exec.executor" (fun () ->
        Session.execute ~work_budget:Db.work_budget p plan)
  in
  {
    aggs = res.Executor.aggs;
    work = res.Executor.work;
    mat_work = 0;
    temp_rows = [];
  }

let trigger = Trigger.create Db.threshold

let run_reopt (db : Db.t) q =
  let o =
    Reopt.run ~work_budget:Db.work_budget db.session ~trigger
      ~mode:Estimator.Default q
  in
  let mat_work =
    List.fold_left (fun acc s -> acc + s.Reopt.mat_work) 0 o.Reopt.steps
  in
  {
    aggs = o.Reopt.final_exec.Executor.aggs;
    work = o.Reopt.total_work - mat_work;
    mat_work;
    temp_rows = List.map (fun s -> s.Reopt.temp_rows) o.Reopt.steps;
  }

(* A temp table's schema: one column per materialized column reference,
   typed like its source column. *)
let temp_schema catalog (q : Query.t) cols =
  Schema.make
    (List.mapi
       (fun i (cr : Query.colref) ->
         let rel = q.Query.rels.(cr.Query.rel) in
         let tbl = Catalog.table_exn catalog rel.Query.table in
         let src = Schema.column (Table.schema tbl) cr.Query.col in
         { Schema.name = Printf.sprintf "c%d" i; ty = src.Schema.ty })
       cols)

(* [Reopt.run]'s default step limit. *)
let max_steps = 32

(* [Reopt.run]'s loop, one public call per step, each inside its layer's
   span. It must take the same steps, materialize the same rows, spend the
   same work and give the same answer as [Reopt.run]. *)
let run_unrolled (db : Db.t) q0 =
  let session = db.session and catalog = db.catalog in
  let temps = ref [] and temp_rows = ref [] and mat_work = ref 0 in
  let rec loop q =
    let p = Span.time "core.session" (fun () -> Session.prepare session q) in
    let plan, _, _ =
      Span.time "plan.optimizer" (fun () ->
          Session.plan p ~mode:Estimator.Default)
    in
    let hit =
      if List.length !temp_rows >= max_steps then None
      else Span.time "card.oracle" (fun () -> Reopt.find_trigger p plan trigger)
    in
    match hit with
    | None ->
      Span.time "exec.executor" (fun () ->
          Session.execute ~work_budget:Db.work_budget ~learn:false p plan)
    | Some (join, set, _est, _q_error) ->
      let cols = Span.time "core.reopt" (fun () -> Reopt.needed_cols q set) in
      let mat =
        Span.time "exec.materialize" (fun () ->
            Executor.materialize ~work_budget:Db.work_budget ~catalog ~query:q
              ~cols (Plan.Join join))
      in
      let temp_name = Session.fresh_temp_name session in
      temps := temp_name :: !temps;
      let table =
        Span.time "storage.temp_table" (fun () ->
            let t =
              Table.of_rows ~name:temp_name ~schema:(temp_schema catalog q cols)
                mat.Executor.mat_rows
            in
            Catalog.add_table catalog t;
            t)
      in
      Span.time "stats.analyze" (fun () ->
          Session.analyze_table session temp_name);
      temp_rows := Table.nrows table :: !temp_rows;
      mat_work := !mat_work + mat.Executor.mat_work;
      loop
        (Span.time "core.reopt" (fun () ->
             Reopt.rewrite q ~set ~temp_name ~temp_cols:cols))
  in
  let drop_temps () =
    Span.time "storage.temp_table" (fun () ->
        List.iter
          (fun name ->
            Catalog.drop_table catalog name;
            Rdb_stats.Db_stats.drop (Session.stats session) ~table:name)
          !temps)
  in
  let res = Fun.protect ~finally:drop_temps (fun () -> loop q0) in
  {
    aggs = res.Executor.aggs;
    work = res.Executor.work;
    mat_work = !mat_work;
    temp_rows = List.rev !temp_rows;
  }

let same_run a b =
  List.equal Value.equal a.aggs b.aggs
  && a.work = b.work && a.mat_work = b.mat_work && a.temp_rows = b.temp_rows

(* [Reopt.run] on every query, untimed: what the unrolled loop must match. *)
let reopt_reference (db : Db.t) =
  let t = Hashtbl.create 128 in
  Array.iter
    (fun (name, text) ->
      let q = Db.parse_bind db.catalog ~name text in
      Hashtbl.replace t name (run_reopt db q))
    db.sql;
  t

(* The failures a query may meet and still leave the run going. *)
let is_failure = function
  | Executor.Work_budget_exceeded _ | Rdb_sql.Parser.Parse_error _
  | Rdb_sql.Lexer.Lex_error _ | Failure _ | Invalid_argument _ ->
    true
  | _ -> false

(* One run of [mode] over [db]; traced when given a [recorder]. *)
let measure ~seconds ~max_passes ~seed ?recorder (db : Db.t) checker mode =
  let n = Array.length db.sql in
  let prng = Rdb_util.Prng.create seed in
  let reference =
    if Option.is_some recorder && mode = Reopt32 then Some (reopt_reference db)
    else None
  in
  let lats = ref [] and pass_ms = ref [] and failed = ref 0 in
  let work = ref 0 and mat_work = ref 0 in
  let steps = ref 0 and temp_rows = ref 0 in
  let one_query req (name, text) =
    let t0 = Span.now_ns () in
    let outcome =
      match
        Span.request req (fun () ->
            let q =
              Span.time "sql" (fun () -> Db.parse_bind db.catalog ~name text)
            in
            match (mode, reference) with
            | Default, _ -> run_default db q
            | Reopt32, None -> run_reopt db q
            | Reopt32, Some _ -> run_unrolled db q)
      with
      | r -> Some r
      | exception e when is_failure e -> None
    in
    lats := Span.ms_since t0 :: !lats;
    match outcome with
    | None -> incr failed
    | Some r ->
      work := !work + r.work;
      mat_work := !mat_work + r.mat_work;
      steps := !steps + List.length r.temp_rows;
      temp_rows := !temp_rows + List.fold_left ( + ) 0 r.temp_rows;
      let matches_reference =
        match reference with
        | None -> true
        | Some runs -> (
          match Hashtbl.find_opt runs name with
          | Some expected -> same_run r expected
          | None -> false)
      in
      if not (Db.check checker name r.aggs && matches_reference) then
        incr failed
  in
  (* Passes run whole, so every pass sends the same queries; another pass
     starts while the run would end nearer [seconds] with it than
     without. *)
  let start = Span.now_ns () in
  let rec passes k =
    let elapsed_s = Span.ms_since start /. 1000.0 in
    let half_pass_s = Db.median !pass_ms /. 2000.0 in
    if k < max_passes && (k = 0 || elapsed_s +. half_pass_s < seconds) then begin
      let order = Array.init n Fun.id in
      Rdb_util.Prng.shuffle prng order;
      let t0 = Span.now_ns () in
      Array.iteri (fun j i -> one_query ((k * n) + j) db.sql.(i)) order;
      pass_ms := Span.ms_since t0 :: !pass_ms;
      passes (k + 1)
    end
  in
  let before = Metrics.snapshot () in
  let wall_ms =
    match recorder with
    | Some r ->
      Span.with_recorder r (fun () ->
          passes 0;
          Span.ms_since start)
    | None ->
      passes 0;
      Span.ms_since start
  in
  let after = Metrics.snapshot () in
  let attempted = List.length !lats in
  let per_query x = float_of_int x /. float_of_int attempted in
  let sorted = Array.of_list !lats in
  Array.sort compare sorted;
  let dp_pairs =
    Metrics.counter after "plan.dp_pairs"
    - Metrics.counter before "plan.dp_pairs"
  in
  let counts =
    [
      ("plan.optimizer.dp_pairs_per_query", per_query dp_pairs);
      ("exec.executor.work_per_query", per_query !work);
      ("exec.materialize.work_per_query", per_query !mat_work);
      ("storage.temp_table.rows_per_query", per_query !temp_rows);
      ("core.reopt.steps_per_query", per_query !steps);
    ]
  in
  let metrics =
    match recorder with
    | Some recorder ->
      Report.traced_times recorder ~wall_ms ~requests:attempted ~exec_work:!work
      @ List.map (fun (k, v) -> (k, v, "count")) counts
      @ [
          ("server.plan_cache.hit_rate", 0.0, "ratio");
          ("server.plan_cache.evictions", 0.0, "count");
          ("server.plan_cache.invalidations", 0.0, "count");
        ]
    | None ->
      [
        ( "throughput_qps",
          float_of_int n /. (Db.median !pass_ms /. 1000.0),
          "1/s" );
        ("latency_p50_ms", Db.percentile sorted 0.50, "ms");
        ("latency_p90_ms", Db.percentile sorted 0.90, "ms");
      ]
  in
  {
    Report.workload = name mode;
    traced = Option.is_some recorder;
    attempted;
    failed = !failed;
    metrics =
      metrics
      @ [
          ("latency_samples", float_of_int attempted, "count");
          ("passes", float_of_int (List.length !pass_ms), "count");
          ( "error_rate",
            float_of_int !failed /. float_of_int attempted,
            "ratio" );
        ];
    det =
      ("answers.digest", Json.Str (Db.digest checker.Db.seen))
      :: List.map (fun (k, v) -> (k, Json.Float v)) counts;
  }
