(* The source-level concurrency analyzer must catch each seeded mutant
   class — unguarded access, domain capture, blocking under a lock,
   lock-order cycles and declared-order violations, stale/missing
   annotations, @requires contract breaches — and stay silent on the
   repo's own annotated tree. *)

module Srclint = Rdb_srclint.Srclint
module Finding = Rdb_analysis.Finding

let check = Alcotest.check

(* ---- harness: analyze an in-memory synthetic tree ---- *)

let tmp_counter = ref 0

let write_tree sources =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "srclint_test_%d_%d" (Unix.getpid ()) !tmp_counter)
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.map
    (fun (name, src) ->
      let p = Filename.concat dir name in
      let oc = open_out p in
      output_string oc src;
      close_out oc;
      p)
    sources

let analyze sources =
  Srclint.analyze ~registry:Rdb_srclint.Registry.none Srclint.Racecheck
    (write_tree sources)

let codes report =
  List.map (fun (i : Srclint.item) -> i.finding.Finding.code) report.Srclint.items

let error_codes report =
  List.map
    (fun (i : Srclint.item) -> i.finding.Finding.code)
    (Srclint.errors report)

let has code report = List.mem code (codes report)

let assert_flags name code sources =
  let r = analyze sources in
  check Alcotest.bool
    (Printf.sprintf "%s: %s flagged (got: %s)" name code
       (String.concat ", " (codes r)))
    true (has code r);
  check Alcotest.int (name ^ ": exit code") 1 (Srclint.exit_code r)

(* ---- seeded mutants ---- *)

let mutant_unguarded_write () =
  assert_flags "unguarded write" "src-unguarded-access"
    [ ( "m.ml",
        {|
let mu = Mutex.create ()

(* @guarded_by mu *)
let counter = ref 0

let bump () = counter := !counter + 1
|} ) ]

let mutant_read_outside_lock () =
  (* the write is properly locked; a later bare read still races *)
  assert_flags "guarded read outside lock" "src-unguarded-access"
    [ ( "m.ml",
        {|
type t = { mu : Mutex.t; (* @guarded_by mu *) mutable n : int }

let set t v =
  Mutex.lock t.mu;
  t.n <- v;
  Mutex.unlock t.mu

let peek t = t.n
|} ) ]

let mutant_domain_capture () =
  assert_flags "capture into Pool.submit" "src-domain-capture"
    [ ( "m.ml",
        {|
let mu = Mutex.create ()

(* @guarded_by mu *)
let shared = Hashtbl.create 8

let leak pool =
  Rdb_util.Pool.submit pool (fun () -> Hashtbl.length shared)
|} ) ]

let mutant_cross_module_cycle () =
  (* m_one holds its own lock while calling into m_two, and vice versa:
     the acquisition cycle m_one.a -> m_two.c -> m_one.a spans both
     files and is only visible through the call summaries *)
  let r =
    analyze
      [ ( "m_one.ml",
          {|
let a = Mutex.create ()

let poke_a () =
  Mutex.lock a;
  Mutex.unlock a

let one_then_two () =
  Mutex.lock a;
  M_two.poke_c ();
  Mutex.unlock a
|} );
        ( "m_two.ml",
          {|
let c = Mutex.create ()

let poke_c () =
  Mutex.lock c;
  Mutex.unlock c

let two_then_one () =
  Mutex.lock c;
  M_one.poke_a ();
  Mutex.unlock c
|} )
      ]
  in
  check Alcotest.bool
    (Printf.sprintf "cross-module cycle flagged (got: %s)"
       (String.concat ", " (codes r)))
    true
    (has "src-lock-order-cycle" r);
  check Alcotest.int "cycle exit code" 1 (Srclint.exit_code r)

let mutant_blocking_under_lock () =
  assert_flags "Unix.read under lock" "src-blocking-under-lock"
    [ ( "m.ml",
        {|
let mu = Mutex.create ()

let slurp fd buf =
  Mutex.lock mu;
  let n = Unix.read fd buf 0 (Bytes.length buf) in
  Mutex.unlock mu;
  n
|} ) ]

let mutant_stale_annotation () =
  assert_flags "stale annotation" "src-stale-annotation"
    [ ( "m.ml",
        {|
(* @guarded_by renamed_away *)
let orphan = ref 0
|} ) ]

let mutant_declared_order_violation () =
  assert_flags "declared-order violation" "src-lock-order-violation"
    [ ( "m.ml",
        {|
(* @lock_order a < b *)
let a = Mutex.create ()
let b = Mutex.create ()

let backwards () =
  Mutex.lock b;
  Mutex.lock a;
  Mutex.unlock a;
  Mutex.unlock b
|} ) ]

let mutant_condition_wait () =
  assert_flags "Condition.wait without the mutex" "src-condition-wait"
    [ ( "m.ml",
        {|
let mu = Mutex.create ()
let cond = Condition.create ()

let broken_wait () = Condition.wait cond mu
|} ) ]

let mutant_requires_violation () =
  assert_flags "@requires breached" "src-requires-violation"
    [ ( "m.ml",
        {|
let mu = Mutex.create ()

(* @guarded_by mu *)
let items = ref []

(* @requires mu *)
let push_locked x = items := x :: !items

let push x = push_locked x
|} ) ]

let mutant_unknown_directive () =
  assert_flags "directive typo" "src-bad-annotation"
    [ ( "m.ml",
        {|
let mu = Mutex.create ()

(* @guardedby mu *)
let n = ref 0
|} ) ]

(* ---- non-findings: the analyzer must stay silent on sound patterns ---- *)

let clean_patterns () =
  let r =
    analyze
      [ ( "m.ml",
          {|
let mu = Mutex.create ()

(* @guarded_by mu *)
let counter = ref 0

let locked_bump () =
  Mutex.lock mu;
  incr counter;
  Mutex.unlock mu

let protected_bump () = Mutex.protect mu (fun () -> incr counter)

(* @race_ok single-threaded setup before any domain is spawned *)
let init () = counter := 0

let raising_branch bad =
  Mutex.lock mu;
  if bad then begin
    Mutex.unlock mu;
    failwith "bad"
  end;
  incr counter;
  Mutex.unlock mu

let shadowed () =
  Mutex.lock mu;
  let counter = !counter in
  Mutex.unlock mu;
  counter + 1
|} ) ]
  in
  check
    Alcotest.(list string)
    (Printf.sprintf "no errors on sound patterns (got: %s)"
       (String.concat ", " (error_codes r)))
    [] (error_codes r);
  check Alcotest.int "clean exit code" 0 (Srclint.exit_code r)

let try_with_diverging_handler () =
  (* every handler re-raises, so only the body exit reaches the join: the
     lock taken inside the try is still held at the [incr] *)
  let r =
    analyze
      [ ( "m.ml",
          {|
let mu = Mutex.create ()

(* @guarded_by mu *)
let counter = ref 0

let bump () =
  (try Mutex.lock mu with e -> raise e);
  incr counter;
  Mutex.unlock mu
|} ) ]
  in
  check
    Alcotest.(list string)
    (Printf.sprintf "lock held after a try whose handlers diverge (got: %s)"
       (String.concat ", " (error_codes r)))
    [] (error_codes r)

let race_ok_is_scoped () =
  (* the suppression covers its own and the next line only *)
  let r =
    analyze
      [ ( "m.ml",
          {|
let mu = Mutex.create ()

(* @guarded_by mu *)
let counter = ref 0

(* @race_ok setup *)
let init () = counter := 0

let still_flagged () = counter := 1
|} ) ]
  in
  check Alcotest.int
    (Printf.sprintf "one access still flagged (got: %s)"
       (String.concat ", " (error_codes r)))
    1
    (List.length
       (List.filter (fun c -> c = "src-unguarded-access") (error_codes r)))

(* ---- the real tree ---- *)

let real_tree_root () =
  match Srclint.find_default_root () with
  | Some root -> root
  | None -> Alcotest.fail "cannot locate lib/ from the test runtime dir"

let real_tree_is_clean () =
  let r = Srclint.analyze_tree Srclint.Racecheck ~root:(real_tree_root ()) () in
  let errs =
    List.map
      (fun (i : Srclint.item) ->
        Printf.sprintf "%s:%d %s" i.file i.line (Finding.to_string i.finding))
      (Srclint.errors r)
  in
  check Alcotest.(list string) "zero errors on the annotated tree" [] errs;
  check Alcotest.int "clean tree exit code" 0 (Srclint.exit_code r)

let real_tree_inventory () =
  let r = Srclint.analyze_tree Srclint.Racecheck ~root:(real_tree_root ()) () in
  let locks, edges =
    match r.Srclint.inventory with
    | Srclint.Locks { locks; edges; _ } -> (locks, edges)
    | Srclint.Flows _ -> Alcotest.fail "racecheck report without locks"
  in
  List.iter
    (fun l ->
      check Alcotest.bool (l ^ " registered as a lock") true
        (List.mem l locks))
    [ "pool.mu"; "pool.fmu"; "plan_cache.mu"; "service.state_mu";
      "service.serial_mu"; "metrics.smu"; "metrics.registry_mu"; "trace.mu";
      "frontend.rmu" ];
  check Alcotest.bool "inline submission orders serial_mu before pool.mu" true
    (List.mem ("service.serial_mu", "pool.mu") edges);
  check Alcotest.bool "cache hits bump metrics under the cache lock" true
    (List.mem ("plan_cache.mu", "metrics.smu") edges)

let () =
  Alcotest.run "rdb_srclint"
    [
      ( "mutants",
        [
          Alcotest.test_case "unguarded write" `Quick mutant_unguarded_write;
          Alcotest.test_case "read outside lock" `Quick
            mutant_read_outside_lock;
          Alcotest.test_case "domain capture" `Quick mutant_domain_capture;
          Alcotest.test_case "cross-module cycle" `Quick
            mutant_cross_module_cycle;
          Alcotest.test_case "blocking under lock" `Quick
            mutant_blocking_under_lock;
          Alcotest.test_case "stale annotation" `Quick mutant_stale_annotation;
          Alcotest.test_case "declared-order violation" `Quick
            mutant_declared_order_violation;
          Alcotest.test_case "condition wait" `Quick mutant_condition_wait;
          Alcotest.test_case "requires violation" `Quick
            mutant_requires_violation;
          Alcotest.test_case "unknown directive" `Quick
            mutant_unknown_directive;
        ] );
      ( "clean",
        [
          Alcotest.test_case "sound patterns" `Quick clean_patterns;
          Alcotest.test_case "race_ok scope" `Quick race_ok_is_scoped;
          Alcotest.test_case "try with diverging handler" `Quick
            try_with_diverging_handler;
        ] );
      ( "tree",
        [
          Alcotest.test_case "zero errors" `Quick real_tree_is_clean;
          Alcotest.test_case "lock inventory and edges" `Quick
            real_tree_inventory;
        ] );
    ]
