(* The static resource certifier, tested four ways:

   - soundness: across all 113 JOB queries and seeded random SPJ queries
     (QCheck over generator seeds), the certified memory/work/output
     hi-bounds dominate a real execution's observed peak_rows/work/out_rows,
     and the lo-bounds undercut them — the certificate's contract with the
     executor's deterministic counters. Random queries whose certified peak
     is over the admission budget are certified but not run;
   - exactness anchors: a single-table seq-scan query's certified work is a
     point interval equal to the executor's observed work; with true
     cardinalities as bounds, certified work and peak of seq-scan, hash and
     nested-loop plans are points equal to a run's; and the peak of any
     run is at least the root intermediate's slots;
   - the re-opt side: observed replan steps never exceed the structural
     certificate bound, the transition simulation terminates and reports
     trajectories within it, and the thrashing detector (seeded-mutant
     oscillation sequences) fires exactly on departed-and-revisited shapes;
   - findings/admission: a tiny budget yields the resource-over-budget
     error the server's admission controller keys on, a huge one does not. *)

module Query = Rdb_query.Query
module Session = Rdb_core.Session
module Reopt = Rdb_core.Reopt
module Trigger = Rdb_core.Trigger
module Estimator = Rdb_card.Estimator
module Oracle = Rdb_card.Oracle
module Executor = Rdb_exec.Executor
module Plan = Rdb_plan.Plan
module Prng = Rdb_util.Prng
module Relset = Rdb_util.Relset
module Finding = Rdb_analysis.Finding
module Resource = Rdb_analysis.Resource
module Interval = Rdb_cost.Interval
module Query_gen = Rdb_verify.Query_gen
module Job_queries = Rdb_imdb.Job_queries

let imdb ?(scale = 0.02) ?(seed = 11) () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~seed ~scale () in
  let session = Session.create catalog in
  Session.analyze session;
  (catalog, session)

let lazy_db = lazy (imdb ())

let parse catalog ~name sql =
  match Rdb_sql.Binder.bind catalog ~name (Rdb_sql.Parser.parse sql) with
  | Ok q -> q
  | Error e -> failwith e

(* Work budget for property executions: large enough that JOB at scale
   0.02 never trips it, so lo-bound checks stay meaningful, while still
   bounding a certifier-regression disaster. *)
let budget = 200_000_000

(* Admission for generated queries, the rule [serve --mem-budget] applies:
   execute only when the certified peak fits this many row-slots. A few
   generated joins certify far beyond it (up to ~2e11 slots at scale
   0.02) and would exhaust the machine's memory if run. *)
let gen_mem_budget = 10_000_000.0

(* Plans certified and run with at least one hash join. *)
let hash_plans = ref 0

(* Certify [q]'s plan under [mode] (Default) and [uncertainty] and check
   every interval is well-formed; then, when the certified peak is within
   [mem_budget], execute it and check the certificate against what ran.
   [None] when held back. *)
let check_sound ?(mem_budget = infinity) ?(mode = Estimator.Default)
    ?uncertainty ~what session (q : Query.t) =
  let prepared = Session.prepare session q in
  let plan, _, estimator = Session.plan ?uncertainty prepared ~mode in
  if
    List.exists
      (fun (j : Plan.join) -> j.Plan.algo = Plan.Hash_join)
      (Plan.joins_bottom_up plan)
  then incr hash_plans;
  let cert = Session.certify ~estimator prepared plan in
  let name = Printf.sprintf "%s/%s" what q.Query.name in
  List.iter
    (fun (label, (i : Interval.t)) ->
      if not (i.Interval.lo <= i.Interval.hi) then
        Alcotest.failf "%s: certified %s interval [%.1f, %.1f] is empty" name
          label i.Interval.lo i.Interval.hi)
    [ ("peak memory", cert.Resource.cert_mem); ("work", cert.Resource.cert_work);
      ("output rows", cert.Resource.cert_out) ];
  let contains label (i : Interval.t) v =
    let v = float_of_int v in
    if v > i.Interval.hi +. 0.5 then
      Alcotest.failf "%s: observed %s %.0f exceeds certified hi %.1f" name
        label v i.Interval.hi;
    if v < i.Interval.lo -. 0.5 then
      Alcotest.failf "%s: observed %s %.0f undercuts certified lo %.1f" name
        label v i.Interval.lo
  in
  if Resource.mem_hi cert > mem_budget then None
  else
    match Session.execute ~work_budget:budget prepared plan with
    | res ->
      contains "work" cert.Resource.cert_work res.Executor.work;
      contains "peak memory" cert.Resource.cert_mem res.Executor.peak_rows;
      contains "output rows" cert.Resource.cert_out res.Executor.out_rows;
      (* the root intermediate alone is [out_rows x n_rels] slots *)
      if res.Executor.peak_rows < res.Executor.out_rows * Query.n_rels q then
        Alcotest.failf "%s: peak %d below the root intermediate's %d slots"
          name res.Executor.peak_rows
          (res.Executor.out_rows * Query.n_rels q);
      Some res.Executor.work
    | exception Executor.Work_budget_exceeded { spent; _ } ->
      (* A capped run still observed a prefix of the full execution, so the
         hi-bounds must dominate what was seen; lo-bounds only constrain
         complete runs. *)
      if float_of_int spent > cert.Resource.cert_work.Interval.hi +. 0.5 then
        Alcotest.failf "%s: capped work %d exceeds certified hi %.1f" name
          spent cert.Resource.cert_work.Interval.hi;
      Some spent

(* Default plans are almost all index nested loops; robust-4 and
   perfect-4 plans bring the hash joins. *)
let test_job_soundness () =
  let _, session = Lazy.force lazy_db in
  let queries = Job_queries.all (Session.catalog session) in
  Alcotest.(check int) "workload size" 113 (List.length queries);
  hash_plans := 0;
  List.iter
    (fun (label, mode, uncertainty) ->
      let total =
        List.fold_left
          (fun acc q ->
            let what = "job-" ^ label in
            acc + Option.get (check_sound ~mode ?uncertainty ~what session q))
          0 queries
      in
      if total <= 0 then Alcotest.failf "JOB %s sweep did no work" label)
    [
      ("default", Estimator.Default, None);
      ("robust-4", Estimator.Default, Some 4.0);
      ("perfect-4", Estimator.Perfect 4, None);
    ];
  if !hash_plans < 100 then
    Alcotest.failf "only %d of 339 JOB plans have a hash join" !hash_plans

(* Generated cases run and held back by admission, over one QCheck run. *)
let gen_run = ref 0
let gen_held = ref 0

let test_gen_soundness =
  QCheck.Test.make ~count:200 ~name:"generated SPJ certificates are sound"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let catalog, session = Lazy.force lazy_db in
      let g = Query_gen.create ~catalog in
      let rng = Prng.create (seed + 1) in
      let q = Query_gen.gen g rng ~name:(Printf.sprintf "r%d" seed) in
      incr gen_run;
      if check_sound ~mem_budget:gen_mem_budget ~what:"gen" session q = None
      then incr gen_held;
      true)

(* Admission must stay the exception: at scale 0.02 about 1 generated
   query in 40 certifies above the budget, so more than a tenth of a run
   held back means the generator or the certifier has drifted. A run of
   200 cases keeps a tenth well clear of the chance tail (at most 9 were
   held back in 41 runs). *)
let gen_soundness_case =
  let name, speed, run = QCheck_alcotest.to_alcotest test_gen_soundness in
  ( name,
    speed,
    fun () ->
      gen_run := 0;
      gen_held := 0;
      run ();
      if !gen_held * 10 > !gen_run then
        Alcotest.failf "%d of %d generated queries held back by admission"
          !gen_held !gen_run )

let test_seq_scan_work_is_exact () =
  let catalog, session = Lazy.force lazy_db in
  (* A single-relation count over title: planned as one sequential scan
     whose certified work is the point [N, N]. *)
  let q = parse catalog ~name:"scan1" "SELECT COUNT(*) FROM title AS t" in
  let prepared = Session.prepare session q in
  let plan, _, estimator = Session.plan prepared ~mode:Estimator.Default in
  let cert = Session.certify ~estimator prepared plan in
  let res = Session.execute prepared plan in
  let n = Table.nrows (Catalog.table_exn catalog "title") in
  Alcotest.(check (float 0.5)) "work lo" (float_of_int n)
    cert.Resource.cert_work.Interval.lo;
  Alcotest.(check (float 0.5)) "work hi" (float_of_int n)
    cert.Resource.cert_work.Interval.hi;
  Alcotest.(check int) "observed work" n res.Executor.work;
  Alcotest.(check int) "replans bounded by rels - 1" 0
    cert.Resource.cert_replans_hi

(* Given the true cardinality of every subset as a point bound, a plan of
   seq scans, hash joins and nested loops leaves the certifier nothing to
   bound: its work and peak are the points a run observes. The executor
   and the certifier evaluate one rule, [Plan.Usage], over ints and at
   interval ends over floats, so a difference in how the two group its
   terms fails here.
   Each JOB query of at most 6 relations, its Default plan rewritten twice:
   every scan a seq scan and every join a hash join; then with a nested
   loop wherever the true outer x inner rows are at most 10^6. *)
let test_certificate_exact () =
  let catalog, session = Lazy.force lazy_db in
  let plans = ref 0 and loops = ref 0 in
  List.iter
    (fun (q : Query.t) ->
      let prepared = Session.prepare session q in
      let oracle = Session.oracle prepared in
      let card s = float_of_int (Oracle.true_card oracle s) in
      let rec rewrite ~loop = function
        | Plan.Scan s -> Plan.Scan { s with Plan.access = Plan.Seq_scan }
        | Plan.Join j ->
          let outer = rewrite ~loop j.Plan.outer
          and inner = rewrite ~loop j.Plan.inner in
          let pairs = card (Plan.rel_set outer) *. card (Plan.rel_set inner) in
          let nl = loop && pairs <= 1e6 in
          if nl then incr loops;
          Plan.Join
            { j with Plan.outer; inner;
              algo = (if nl then Plan.Nested_loop else Plan.Hash_join) }
      in
      let plan, _, estimator = Session.plan prepared ~mode:Estimator.Default in
      List.iter
        (fun loop ->
          let plan = rewrite ~loop plan in
          let cert =
            Resource.certify ~bounds:(fun s -> (card s, card s)) ~catalog
              ~estimator q plan
          in
          let res = Session.execute prepared plan in
          let point label (i : Interval.t) v =
            let v = float_of_int v in
            if not (i.Interval.lo = v && i.Interval.hi = v) then
              Alcotest.failf
                "%s %s: certified %s [%.17g, %.17g], observed %.17g"
                q.Query.name (Plan.shape q plan) label i.Interval.lo
                i.Interval.hi v
          in
          point "work" cert.Resource.cert_work res.Executor.work;
          point "peak memory" cert.Resource.cert_mem res.Executor.peak_rows;
          incr plans)
        [ false; true ])
    (List.filter
       (fun q -> Query.n_rels q <= 6)
       (Job_queries.all catalog));
  if !plans < 40 || !loops = 0 then
    Alcotest.failf "%d plans, %d nested loops: the sweep lost its cases"
      !plans !loops

(* An empty MCV list says "no value repeats" only when it had a slot to
   spare. After ANALYZE with 0 slots every list is empty although values
   repeat, so the index fan-outs of a hand-built index nested loop (title
   outer, movie_keyword probed on movie_id) and of an index scan on
   movie_keyword's most frequent movie_id must still be certified. *)
let test_mcv_slots_sound () =
  let catalog, session = imdb () in
  let mk = Catalog.table_exn catalog "movie_keyword" in
  let movie_id = Schema.find_exn (Table.schema mk) "movie_id" in
  let top_movie =
    let counts = Hashtbl.create 1024 in
    for row = 0 to Table.nrows mk - 1 do
      let v = Table.int_cell mk ~row ~col:movie_id in
      Hashtbl.replace counts v
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
    done;
    let most v c (bv, bc) = if c > bc then (v, c) else (bv, bc) in
    fst (Hashtbl.fold most counts (0, 0))
  in
  let join =
    parse catalog ~name:"inl"
      "SELECT COUNT(*) FROM movie_keyword AS mk, title AS t WHERE t.id = \
       mk.movie_id AND t.production_year > 2000"
  in
  let lookup =
    parse catalog ~name:"index"
      (Printf.sprintf
         "SELECT COUNT(*) FROM movie_keyword AS mk WHERE mk.movie_id = %d"
         top_movie)
  in
  let scan rel access =
    { Plan.scan_rel = rel; access; scan_est = 1.0; scan_cost = 1.0 }
  in
  let rel_of (q : Query.t) alias =
    let rec go i = if Query.rel_alias q i = alias then i else go (i + 1) in
    go 0
  in
  let inl_plan =
    let t = rel_of join "t" and m = rel_of join "mk" in
    Plan.Join
      {
        Plan.algo = Plan.Index_nl { inner_col = movie_id };
        outer = Plan.Scan (scan t Plan.Seq_scan);
        inner = Plan.Scan (scan m Plan.Seq_scan);
        join_est = 1.0;
        join_cost = 1.0;
        join_edges =
          List.map
            (fun (e : Query.edge) ->
              if e.Query.l.Query.rel = t then e
              else { Query.l = e.Query.r; r = e.Query.l })
            join.Query.edges;
      }
  in
  let index_plan =
    Plan.Scan (scan 0 (Plan.Index_scan { col = movie_id; key = top_movie }))
  in
  List.iter
    (fun slots ->
      Session.analyze ~mcv_slots:slots session;
      List.iter
        (fun (q, plan) ->
          let prepared = Session.prepare session q in
          let cert = Session.certify prepared plan in
          let res = Session.execute prepared plan in
          let hi = cert.Resource.cert_work.Interval.hi in
          if float_of_int res.Executor.work > hi +. 0.5 then
            Alcotest.failf "%d MCV slots, %s: work %d above certified hi %.1f"
              slots q.Query.name res.Executor.work hi)
        [ (join, inl_plan); (lookup, index_plan) ])
    [ 0; 10 ]

let test_reopt_steps_within_bound () =
  let _, session = Lazy.force lazy_db in
  let queries = Job_queries.all (Session.catalog session) in
  (* An aggressive threshold forces materializations on many queries. *)
  let trigger = Trigger.create 2.0 in
  let checked = ref 0 in
  let stepped = ref 0 in
  List.iteri
    (fun i q ->
      if i mod 7 = 0 then begin
        let prepared = Session.prepare session q in
        let plan, _, estimator =
          Session.plan prepared ~mode:Estimator.Default
        in
        let cert =
          Session.certify ~transitions:true ~threshold:2.0 ~estimator
            prepared plan
        in
        let outcome =
          Reopt.run ~work_budget:budget session ~trigger
            ~mode:Estimator.Default q
        in
        incr checked;
        let steps = List.length outcome.Reopt.steps in
        if steps > 0 then incr stepped;
        if steps > cert.Resource.cert_replans_hi then
          Alcotest.failf "%s: %d re-opt steps exceed certified bound %d"
            q.Query.name steps cert.Resource.cert_replans_hi;
        if outcome.Reopt.peak_rows < outcome.Reopt.final_exec.Executor.peak_rows
        then
          Alcotest.failf "%s: run peak below final execution's peak"
            q.Query.name;
        match cert.Resource.cert_reopt with
        | None -> Alcotest.failf "%s: transitions requested but absent" q.Query.name
        | Some ro ->
          if ro.Resource.ro_predicted_replans > cert.Resource.cert_replans_hi
          then
            Alcotest.failf "%s: predicted %d replans above structural bound %d"
              q.Query.name ro.Resource.ro_predicted_replans
              cert.Resource.cert_replans_hi
      end)
    queries;
  if !checked = 0 then Alcotest.fail "no queries checked";
  if !stepped = 0 then
    Alcotest.fail "threshold 2.0 forced no re-optimization at all"

let test_thrashing_detector () =
  let fires shapes = Resource.detect_oscillation shapes <> None in
  Alcotest.(check bool) "A B A oscillates" true (fires [ "A"; "B"; "A" ]);
  Alcotest.(check bool) "A B B A oscillates" true (fires [ "A"; "B"; "B"; "A" ]);
  Alcotest.(check bool) "A A is a fixpoint, not thrashing" false
    (fires [ "A"; "A" ]);
  Alcotest.(check bool) "monotone progress" false (fires [ "A"; "B"; "C" ]);
  Alcotest.(check bool) "empty" false (fires []);
  (match Resource.detect_oscillation [ "A"; "B"; "A"; "B" ] with
  | Some ("A", 0, 2) -> ()
  | Some (s, i, j) ->
    Alcotest.failf "wrong witness (%s, %d, %d), wanted (A, 0, 2)" s i j
  | None -> Alcotest.fail "A B A B must oscillate");
  (* A forced oscillation through the full findings pipeline: the mutant
     report is what a thrashing simulation produces, and the finding must
     carry the resource-thrashing code. *)
  let mutant_cert =
    {
      Resource.cert_shape = "A";
      cert_mem = { Interval.lo = 0.0; hi = 10.0 };
      cert_work = { Interval.lo = 0.0; hi = 10.0 };
      cert_out = { Interval.lo = 0.0; hi = 10.0 };
      cert_replans_hi = 3;
      cert_reopt =
        Some
          {
            Resource.ro_threshold = 32.0;
            ro_transitions = [];
            ro_predicted_replans = 2;
            ro_stable = true;
            ro_thrashing = Resource.detect_oscillation [ "A"; "B"; "A" ];
            ro_temp_slots_hi = 0.0;
          };
    }
  in
  let q =
    parse (fst (Lazy.force lazy_db)) ~name:"mutant"
      "SELECT COUNT(*) FROM title AS t"
  in
  let codes = List.map (fun f -> f.Finding.code) (Resource.findings q mutant_cert) in
  Alcotest.(check bool) "thrashing finding emitted" true
    (List.mem "resource-thrashing" codes)

let test_budget_findings () =
  let _, session = Lazy.force lazy_db in
  let queries = Job_queries.all (Session.catalog session) in
  let q = List.nth queries 20 in
  let prepared = Session.prepare session q in
  let plan, _, estimator = Session.plan prepared ~mode:Estimator.Default in
  let cert = Session.certify ~estimator prepared plan in
  let codes b =
    List.map (fun f -> f.Finding.code) (Resource.findings ~budget:b q cert)
  in
  Alcotest.(check bool) "tiny budget rejects" true
    (List.mem "resource-over-budget" (codes 1.0));
  Alcotest.(check bool) "huge budget admits" false
    (List.mem "resource-over-budget"
       (codes (Resource.mem_hi cert +. 1.0)));
  Alcotest.(check bool) "admitted cert carries summary" true
    (List.mem "resource-certificate"
       (codes (Resource.mem_hi cert +. 1.0)))

let test_json_roundtrip () =
  let _, session = Lazy.force lazy_db in
  let queries = Job_queries.all (Session.catalog session) in
  let q = List.hd queries in
  let prepared = Session.prepare session q in
  let plan, _, estimator = Session.plan prepared ~mode:Estimator.Default in
  let cert = Session.certify ~transitions:true ~estimator prepared plan in
  let s = Rdb_obs.Json.to_string (Resource.to_json cert) in
  Alcotest.(check bool) "certificate JSON is strict" true
    (Rdb_obs.Json.is_valid s)

let () =
  Alcotest.run "rdb_resource"
    [
      ( "soundness",
        [
          Alcotest.test_case "113 JOB certificates dominate execution" `Slow
            test_job_soundness;
          gen_soundness_case;
          Alcotest.test_case "seq-scan work certificate is exact" `Quick
            test_seq_scan_work_is_exact;
          Alcotest.test_case "index fan-out sound at 0 and 10 MCV slots"
            `Quick test_mcv_slots_sound;
          Alcotest.test_case "true-cardinality certificates are exact" `Quick
            test_certificate_exact;
        ] );
      ( "reopt",
        [
          Alcotest.test_case "observed steps within certified bound" `Slow
            test_reopt_steps_within_bound;
          Alcotest.test_case "thrashing detector (seeded mutants)" `Quick
            test_thrashing_detector;
        ] );
      ( "admission",
        [
          Alcotest.test_case "budget findings" `Quick test_budget_findings;
          Alcotest.test_case "certificate JSON" `Quick test_json_roundtrip;
        ] );
    ]
