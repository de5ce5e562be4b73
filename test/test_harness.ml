module Runner = Rdb_harness.Runner
module Experiments = Rdb_harness.Experiments
module Sweep = Rdb_harness.Sweep
module FS = Rdb_harness.Feedback_sweep
module Finding = Rdb_analysis.Finding

let check = Alcotest.check

(* One tiny lab shared by the whole file: building it is the expensive
   part. *)
let lab = lazy (Runner.create_lab ~scale:0.02 ~work_budget:50_000_000 ())

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub hay i nl = needle then true
    else scan (i + 1)
  in
  scan 0

let test_lab_binds_workload () =
  let lab = Lazy.force lab in
  check Alcotest.int "113 queries" 113 (List.length (Runner.queries lab))

let test_run_query_caches () =
  let lab = Lazy.force lab in
  let q = Runner.query lab "1a" in
  let m1 = Runner.run_query lab Runner.Default q in
  let m2 = Runner.run_query lab Runner.Default q in
  check Alcotest.bool "cached (physically equal)" true (m1 == m2)

let test_config_names () =
  check Alcotest.string "default" "default" (Runner.config_name Runner.Default);
  check Alcotest.string "perfect" "perfect-4" (Runner.config_name (Runner.Perfect 4));
  check Alcotest.string "reopt" "reopt-32" (Runner.config_name (Runner.Reopt 32.0));
  check Alcotest.string "combo" "perfect-3+reopt-32"
    (Runner.config_name (Runner.Perfect_reopt (3, 32.0)));
  (* config_of_name inverts config_name on the estimation modes, keeps the
     CLI's short spellings, and rejects everything else *)
  List.iter
    (fun c ->
      check Alcotest.bool (Runner.config_name c) true
        (Runner.config_of_name (Runner.config_name c) = Some c))
    [ Runner.Default; Runner.Perfect 1; Runner.Perfect 17; Runner.Perfect_all;
      Runner.Feedback_naive; Runner.Feedback_gated ];
  List.iter
    (fun (s, want) ->
      check Alcotest.bool s true (Runner.config_of_name s = want))
    [ ("PERFECT", Some Runner.Perfect_all); ("feedback", Some Runner.Feedback_naive);
      ("perfect--3", None); ("perfect-0", None); ("perfect-4x", None);
      ("perfect-", None); ("reopt-32", None); ("nosuch", None) ]

let test_measurements_sane () =
  let lab = Lazy.force lab in
  let q = Runner.query lab "6d" in
  let m = Runner.run_query lab Runner.Default q in
  check Alcotest.bool "positive exec" true (m.Runner.m_exec_ms >= 0.0);
  check Alcotest.bool "positive plan" true (m.Runner.m_plan_ms >= 0.0);
  check Alcotest.int "rels" 5 m.Runner.m_rels;
  let r = Runner.run_query lab (Runner.Reopt 2.0) q in
  check Alcotest.bool "reopt steps recorded" true (r.Runner.m_steps >= 1)

let test_perfect_beats_default_on_workload () =
  let lab = Lazy.force lab in
  let default = Runner.run_workload lab Runner.Default in
  let perfect = Runner.run_workload lab Runner.Perfect_all in
  check Alcotest.bool "perfect total <= default total" true
    (Runner.total_exec_ms perfect <= Runner.total_exec_ms default)

let test_table3_text () =
  let s = Experiments.run (Lazy.force lab) "table3" in
  check Alcotest.bool "has 17-row" true (contains ~needle:"17" s);
  check Alcotest.bool "has counts" true (contains ~needle:"113" s || contains ~needle:"21" s)

let test_skew_example_underestimates () =
  let s = Experiments.run (Lazy.force lab) "skew" in
  check Alcotest.bool "reports underestimate" true
    (contains ~needle:"under-estimation factor" s)

(* The second probe restricts the join column itself, where the MCV list
   of trades.company_id sees the skew. *)
let test_skew_join_column_probe () =
  let s = Experiments.run (Lazy.force lab) "skew" in
  check Alcotest.bool "join-column probe" true
    (contains ~needle:"WHERE c.id = 1 AND c.id = tr.company_id;" s)

let test_fig3_4_text () =
  let lab = Lazy.force lab in
  let s = Experiments.run lab "fig3_4" in
  check Alcotest.bool "6d graph" true (contains ~needle:"graph 6d" s);
  check Alcotest.bool "18a graph" true (contains ~needle:"graph 18a" s)

let test_fig6_text () =
  let lab = Lazy.force lab in
  let s = Experiments.run lab "fig6" in
  check Alcotest.bool "has CREATE TEMP" true
    (contains ~needle:"CREATE TEMPORARY TABLE" s);
  check Alcotest.bool "has final select" true (contains ~needle:"Final SELECT" s)

(* fig1's query list is the 20 Default cells with the most work, ties
   broken by name: deterministic, unlike a wall-clock ranking. *)
let test_fig1_top20_by_work () =
  let lab = Lazy.force lab in
  let s = Experiments.run lab "fig1" in
  let prefix = "top-20 queries (by default work): " in
  let printed =
    List.find_map
      (fun line ->
        if String.starts_with ~prefix line then
          Some
            (String.split_on_char ' '
               (String.sub line (String.length prefix)
                  (String.length line - String.length prefix)))
        else None)
      (String.split_on_char '\n' s)
  in
  let expected =
    Runner.run_workload lab Runner.Default
    |> List.map (fun (m : Runner.measurement) -> (- m.Runner.m_work, m.Runner.m_query))
    |> List.sort compare
    |> List.filteri (fun i _ -> i < 20)
    |> List.map snd
  in
  check Alcotest.(option (list string)) "top-20 by work, then name"
    (Some expected) printed

let test_experiment_names () =
  check Alcotest.bool "all present" true
    (List.for_all
       (fun n -> List.mem n Experiments.names)
       [ "table1"; "table2"; "table3"; "table6"; "fig1"; "fig2"; "fig3_4";
         "skew"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9" ])

(* run_grid with 4 domains must reproduce the sequential run measurement
   for measurement on every deterministic field. Wall-clock fields are
   excluded, and the wall-clock deadline is pushed out of reach so only the
   deterministic work budget can cap a cell. *)
let test_run_grid_deterministic_across_jobs () =
  let fresh () =
    Runner.create_lab ~scale:0.02 ~work_budget:20_000_000 ~deadline_ms:1e9 ()
  in
  let configs = [ Runner.Default; Runner.Reopt 8.0 ] in
  let queries lab =
    List.filteri (fun i _ -> i < 10) (Runner.queries lab)
  in
  let lab1 = fresh () in
  let seq = Runner.run_grid ~jobs:1 ~queries:(queries lab1) lab1 configs in
  let lab4 = fresh () in
  let par = Runner.run_grid ~jobs:4 ~queries:(queries lab4) lab4 configs in
  List.iter2
    (fun (c1, ms1) (c4, ms4) ->
      check Alcotest.string "config order" (Runner.config_name c1)
        (Runner.config_name c4);
      List.iter2
        (fun (m1 : Runner.measurement) (m4 : Runner.measurement) ->
          let ctx field =
            Printf.sprintf "%s/%s %s" (Runner.config_name c1) m1.Runner.m_query field
          in
          check Alcotest.string (ctx "query") m1.Runner.m_query m4.Runner.m_query;
          check Alcotest.int (ctx "rels") m1.Runner.m_rels m4.Runner.m_rels;
          check Alcotest.int (ctx "work") m1.Runner.m_work m4.Runner.m_work;
          check Alcotest.bool (ctx "capped") m1.Runner.m_capped m4.Runner.m_capped;
          check Alcotest.int (ctx "steps") m1.Runner.m_steps m4.Runner.m_steps)
        ms1 ms4)
    seq par

(* A cell whose plan blows the work budget is recorded as capped, and the
   rest of the sweep still runs. *)
let test_budget_cap_is_per_cell () =
  (* 100 work units sits inside the range the first workload queries need
     at this scale, so the sweep mixes capped and uncapped cells. *)
  let lab = Runner.create_lab ~scale:0.02 ~work_budget:100 ~deadline_ms:1e9 () in
  let queries = List.filteri (fun i _ -> i < 8) (Runner.queries lab) in
  let grid = Runner.run_grid ~jobs:1 ~queries lab [ Runner.Default ] in
  let ms = List.assoc Runner.Default grid in
  check Alcotest.int "all cells measured" 8 (List.length ms);
  check Alcotest.bool "tiny budget caps some cells" true
    (List.exists (fun m -> m.Runner.m_capped) ms);
  check Alcotest.bool "sweep continues past capped cells" true
    (List.exists (fun m -> not m.Runner.m_capped) ms)

let test_unknown_experiment () =
  let lab = Lazy.force lab in
  check Alcotest.bool "raises" true
    (try ignore (Experiments.run lab "nope"); false
     with Invalid_argument _ -> true)

(* ---- the analysis sweeps ---- *)

let sweep_queries lab =
  List.map (Runner.query lab) [ "1a"; "6d"; "16b"; "18a"; "25c" ]

let test_lint_sweep () =
  let lab = Lazy.force lab in
  let c, findings =
    Sweep.lint ~queries:(sweep_queries lab) ~threshold:32.0 ~perfect_n:4 lab
  in
  let s = Finding.summarize ~key:Sweep.query_of findings in
  check Alcotest.int "no errors" 0 s.Finding.errors;
  check Alcotest.int "plans: 2 configs + 1 reopt final per query" 15
    c.Sweep.n_plans;
  check Alcotest.int "rewrite steps linted" 5 c.Sweep.n_steps;
  check Alcotest.int "nothing capped" 0 c.Sweep.n_capped

let test_verify_sweep () =
  let lab = Lazy.force lab in
  let c, findings =
    Sweep.verify ~queries:(sweep_queries lab) ~threshold:32.0 ~perfect_n:4
      ~gen:2 ~seed:42 lab
  in
  let s = Finding.summarize findings in
  check Alcotest.int "no errors" 0 s.Finding.errors;
  check Alcotest.int "plans: 3 configs per query, reopt finals, 2 generated"
    22 c.Sweep.n_plans;
  check Alcotest.int "rewrite steps proved" 5 c.Sweep.n_steps;
  check Alcotest.int "nothing capped" 0 c.Sweep.n_capped

(* The feedback verdict on hand-built reports: the passing shape, a gated
   regression, and naive corrections that hurt nowhere. *)
let fs_report ~naive_regressions ~gated_regressions =
  let cell ?(capped = false) work =
    { Runner.m_query = "1a"; m_rels = 3; m_plan_ms = 0.0; m_exec_ms = 0.0;
      m_work = work; m_capped = capped; m_steps = 0 }
  in
  { FS.fr_perfect_n = 4; fr_reopt_learn = 32.0; fr_store_size = 1;
    fr_rows =
      [ { FS.fs_query = "1a"; fs_rels = 3; fs_default = cell 1_000;
          fs_naive = cell ~capped:true 70_000; fs_gated = cell 900;
          fs_perfect = cell 500 } ];
    fr_naive_regressions = naive_regressions; fr_naive_improvements = [];
    fr_gated_regressions = gated_regressions; fr_gated_improvements = [];
    fr_default_pairs = 10; fr_naive_pairs = 10; fr_gated_pairs = 10;
    fr_naive_lookups = 5; fr_lookup_bound = 26 }

let failing v =
  List.filter_map
    (fun (c : FS.check) -> if c.FS.ok then None else Some c.FS.name)
    v.FS.v_checks

let test_feedback_verdict () =
  let ok =
    FS.verdict
      (fs_report ~naive_regressions:[ ("1a", 70.0) ] ~gated_regressions:[])
  in
  check Alcotest.bool "passing shape" true (FS.passed ok);
  check Alcotest.(list (pair int int)) "totals"
    [ (1_000, 0); (70_000, 1); (900, 0); (500, 0) ]
    (List.map
       (fun t -> (t.FS.t_work, t.FS.t_capped))
       [ ok.FS.v_default; ok.FS.v_naive; ok.FS.v_gated; ok.FS.v_perfect ]);
  let gated =
    FS.verdict
      (fs_report ~naive_regressions:[ ("1a", 70.0) ]
         ~gated_regressions:[ ("1a", 2.0) ])
  in
  check Alcotest.bool "gated regression fails" false (FS.passed gated);
  check Alcotest.(list string) "gated check" [ "gated-never-materially-worse" ]
    (failing gated);
  let harmless =
    FS.verdict (fs_report ~naive_regressions:[] ~gated_regressions:[])
  in
  check Alcotest.bool "no naive regression fails" false (FS.passed harmless);
  check Alcotest.(list string) "naive check"
    [ "naive-corrections-hurt-somewhere" ] (failing harmless)

let () =
  Alcotest.run "rdb_harness"
    [
      ( "runner",
        [
          Alcotest.test_case "binds workload" `Quick test_lab_binds_workload;
          Alcotest.test_case "caches measurements" `Quick test_run_query_caches;
          Alcotest.test_case "config names" `Quick test_config_names;
          Alcotest.test_case "measurements sane" `Quick test_measurements_sane;
          Alcotest.test_case "perfect <= default" `Slow
            test_perfect_beats_default_on_workload;
          Alcotest.test_case "run_grid jobs=4 = jobs=1" `Slow
            test_run_grid_deterministic_across_jobs;
          Alcotest.test_case "budget cap is per-cell" `Quick
            test_budget_cap_is_per_cell;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table3 text" `Quick test_table3_text;
          Alcotest.test_case "skew example" `Quick test_skew_example_underestimates;
          Alcotest.test_case "skew join-column probe" `Quick
            test_skew_join_column_probe;
          Alcotest.test_case "fig3_4 text" `Quick test_fig3_4_text;
          Alcotest.test_case "fig6 text" `Quick test_fig6_text;
          Alcotest.test_case "fig1 top-20 by work" `Slow test_fig1_top20_by_work;
          Alcotest.test_case "experiment names" `Quick test_experiment_names;
          Alcotest.test_case "unknown rejected" `Quick test_unknown_experiment;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "lint sweep" `Quick test_lint_sweep;
          Alcotest.test_case "verify sweep" `Quick test_verify_sweep;
          Alcotest.test_case "feedback verdict" `Quick test_feedback_verdict;
        ] );
    ]
