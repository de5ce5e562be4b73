(* Golden plans: every JOB query at scale 0.02, seed 42, planned under
   Default, perfect-4 and robust planning at uncertainty 2, 4 and 8 (every
   value the robust experiment runs). One line per plan: query,
   configuration, DP pairs considered, subsets planned, then the plan tree
   with each node's algorithm or access path and its estimate and cost in
   exact hexadecimal. The test rule diffs this output against
   plan_golden.expected, so no change to the DP, the cost rule or the
   estimator can silently move a plan, an estimate or a cost.

   Then every query's re-optimization run at thresholds 2 and 32 under
   Default estimates: the CQNF fingerprint of the original query, one line
   per step (materialized aliases, trigger estimate and Q-error in exact
   hexadecimal, temp-table rows, and the fingerprint of the rewritten
   query), and the final plan. This pins the estimates on rewritten
   queries — temp-table columns plus constants implied through join
   classes — and the CQNF variable numbering. *)

module Query = Rdb_query.Query
module Estimator = Rdb_card.Estimator
module Oracle = Rdb_card.Oracle
module Plan = Rdb_plan.Plan
module Optimizer = Rdb_plan.Optimizer
module Session = Rdb_core.Session
module Reopt = Rdb_core.Reopt
module Trigger = Rdb_core.Trigger
module Cqnf = Rdb_verify.Cqnf

let rec render q buf = function
  | Plan.Scan s ->
    Buffer.add_string buf (Query.rel_alias q s.Plan.scan_rel);
    (match s.Plan.access with
     | Plan.Seq_scan -> ()
     | Plan.Index_scan { col; key } ->
       Buffer.add_string buf (Printf.sprintf "@c%d=%d" col key));
    Buffer.add_string buf
      (Printf.sprintf "[%h %h]" s.Plan.scan_est s.Plan.scan_cost)
  | Plan.Join j ->
    Buffer.add_string buf
      (Printf.sprintf "(%s[%h %h] "
         (match j.Plan.algo with
          | Plan.Hash_join -> "HJ"
          | Plan.Index_nl { inner_col } -> Printf.sprintf "INL@c%d" inner_col
          | Plan.Nested_loop -> "NL")
         j.Plan.join_est j.Plan.join_cost);
    render q buf j.Plan.outer;
    Buffer.add_char buf ' ';
    render q buf j.Plan.inner;
    Buffer.add_char buf ')'

let () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~seed:42 ~scale:0.02 () in
  let session = Session.create catalog in
  Session.analyze session;
  List.iter
    (fun (q : Query.t) ->
      let p = Session.prepare session q in
      Oracle.ensure_up_to (Session.oracle p) 4;
      List.iter
        (fun (label, mode, uncertainty) ->
          let plan, stats, _ = Session.plan ~checks:[] ?uncertainty p ~mode in
          let buf = Buffer.create 512 in
          render q buf plan;
          Printf.printf "%s %s %d %d %s\n" q.Query.name label
            stats.Optimizer.pairs_considered stats.Optimizer.subsets_planned
            (Buffer.contents buf))
        [
          ("default", Estimator.Default, None);
          ("perfect-4", Estimator.Perfect 4, None);
          ("robust-2", Estimator.Default, Some 2.0);
          ("robust-4", Estimator.Default, Some 4.0);
          ("robust-8", Estimator.Default, Some 8.0);
        ])
    (Rdb_imdb.Job_queries.all catalog);
  let fingerprint q = Cqnf.fingerprint (Cqnf.of_query ~catalog q) in
  List.iter
    (fun (q : Query.t) ->
      Printf.printf "%s cqnf %s\n" q.Query.name (fingerprint q);
      List.iter
        (fun threshold ->
          let label = Printf.sprintf "reopt-%g" threshold in
          let o =
            Reopt.run ~checks:[] ~cleanup:false session
              ~trigger:(Trigger.create threshold) ~mode:Estimator.Default q
          in
          List.iter
            (fun (s : Reopt.step) ->
              Printf.printf "%s %s step %s %h %h %d %s\n" q.Query.name label
                (String.concat "," s.Reopt.materialized_aliases)
                s.Reopt.trigger_est s.Reopt.trigger_q_error s.Reopt.temp_rows
                (fingerprint s.Reopt.query_after))
            o.Reopt.steps;
          let buf = Buffer.create 512 in
          render o.Reopt.final_query buf o.Reopt.final_plan;
          Printf.printf "%s %s final %s\n" q.Query.name label
            (Buffer.contents buf);
          List.iter
            (fun (s : Reopt.step) -> Session.drop_temp session s.Reopt.temp_name)
            o.Reopt.steps)
        [ 2.0; 32.0 ])
    (Rdb_imdb.Job_queries.all catalog)
