(* Golden work charges: every JOB query's Default and robust-4 plans at
   scale 0.02, executed in full and under work budgets of half and a fifth
   of its full work. One line per query and plan: the full run's work
   units and peak row-slots, the [spent] count each budgeted run aborted
   at ("-" when it completed), the work and peak of materializing the
   plan's output onto the aggregate columns, and the MD5 of those
   materialized rows in order. The test rule diffs this output against
   budget_aborts.expected. Totals alone do not pin the order in which an
   operator charges its work; the abort points do, so a change that
   regroups the charges cannot silently move where a budget bites. The
   robust-4 plans are mostly hash joins (the Default plans almost never
   are), and the row digest pins the order each join emits its matches. *)

module Query = Rdb_query.Query
module Estimator = Rdb_card.Estimator
module Executor = Rdb_exec.Executor
module Session = Rdb_core.Session

let agg_cols (q : Query.t) =
  List.filter_map
    (function
      | Query.Count_star -> None
      | Query.Count_col cr | Query.Min_col cr | Query.Max_col cr
      | Query.Sum_col cr ->
        Some cr)
    q.Query.select

(* Rows in order, one value per line and a blank line per row, so no two
   row lists share a digest input. *)
let rows_digest rows =
  let buf = Buffer.create 4096 in
  List.iter
    (fun row ->
      Array.iter
        (fun v ->
          Buffer.add_string buf (Rdb_storage.Value.to_string v);
          Buffer.add_char buf '\n')
        row;
      Buffer.add_char buf '\n')
    rows;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~scale:0.02 () in
  let session = Session.create catalog in
  Session.analyze session;
  List.iter
    (fun (q : Query.t) ->
      let p = Session.prepare session q in
      List.iter
        (fun (label, uncertainty) ->
          let plan, _, _ =
            Session.plan ~checks:[] ?uncertainty p ~mode:Estimator.Default
          in
          let full = Session.execute p plan in
          let w = full.Executor.work in
          let abort_at budget =
            match Session.execute ~work_budget:budget p plan with
            | _ -> "-"
            | exception Executor.Work_budget_exceeded { spent; _ } ->
              string_of_int spent
          in
          let m =
            Executor.materialize ~catalog ~query:q ~cols:(agg_cols q) plan
          in
          Printf.printf "%s %s work %d peak %d half %s fifth %s mat %d %d rows %s\n"
            q.Query.name label w full.Executor.peak_rows (abort_at (w / 2))
            (abort_at (w / 5)) m.Executor.mat_work m.Executor.mat_peak_rows
            (rows_digest m.Executor.mat_rows))
        [ ("default", None); ("robust-4", Some 4.0) ])
    (Rdb_imdb.Job_queries.all catalog)
