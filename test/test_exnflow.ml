(* The exception-flow analyzer must catch each seeded mutant class —
   leak-on-raise (fds, channels, held locks), spawn-escape, misplaced
   control-exception handlers, bare swallows, re-raises that drop cleanup,
   out-of-scope annotations — stay silent on the sound shapes
   (Fun.protect, Mutex.protect, @releases, branch-complete releases), and
   report zero errors on the repo's own annotated tree. The regression
   cases pin the real error-path bugs this analyzer surfaced. *)

module Srclint = Rdb_srclint.Srclint
module Exnflow = Rdb_srclint.Exnflow
module Registry = Rdb_srclint.Registry
module Finding = Rdb_analysis.Finding
module Session = Rdb_core.Session
module Reopt = Rdb_core.Reopt
module Trigger = Rdb_core.Trigger
module Estimator = Rdb_card.Estimator
module Executor = Rdb_exec.Executor
module Service = Rdb_server.Service
module Frontend = Rdb_server.Frontend
module Metrics = Rdb_obs.Metrics

let check = Alcotest.check

(* ---- harness: analyze an in-memory synthetic tree ---- *)

let tmp_counter = ref 0

let write_tree sources =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "exnflow_test_%d_%d" (Unix.getpid ()) !tmp_counter)
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

let analyze ?(handlers = []) sources =
  Srclint.analyze ~registry:{ Registry.none with handlers } Srclint.Exnflow
    (write_tree sources)

let codes r =
  List.map (fun (i : Srclint.item) -> i.finding.Finding.code) r.Srclint.items

let error_codes r =
  List.map
    (fun (i : Srclint.item) -> i.finding.Finding.code)
    (Srclint.errors r)

let has code r = List.mem code (codes r)

let assert_flags ?handlers name code sources =
  let r = analyze ?handlers sources in
  check Alcotest.bool
    (Printf.sprintf "%s: %s flagged (got: %s)" name code
       (String.concat ", " (codes r)))
    true (has code r);
  check Alcotest.int (name ^ ": exit code") 1 (Srclint.exit_code r)

(* ---- seeded mutants ---- *)

let mutant_leaked_fd () =
  (* fstat can raise Unix_error with the descriptor still open *)
  assert_flags "fd leaked on raise" "src-exn-leak"
    [ ( "m.ml",
        {|
let size path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let st = Unix.fstat fd in
  Unix.close fd;
  st.Unix.st_size
|} ) ]

let mutant_leaked_channel () =
  (* the missing-~finally shape: input_line raises Sys_error mid-body *)
  assert_flags "channel leaked on raise" "src-exn-leak"
    [ ( "m.ml",
        {|
let first_line path =
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  line
|} ) ]

let mutant_lock_across_raise () =
  assert_flags "lock held across raise" "src-exn-leak"
    [ ( "m.ml",
        {|
let mu = Mutex.create ()
let n = ref 0

let bump () =
  Mutex.lock mu;
  if !n < 0 then failwith "negative";
  incr n;
  Mutex.unlock mu
|} ) ]

let mutant_spawn_escape () =
  assert_flags "exception escapes Domain.spawn" "src-spawn-escape"
    [ ( "m.ml",
        {|
let boom () =
  let d = Domain.spawn (fun () -> failwith "die") in
  Domain.join d
|} ) ]

let mutant_control_exn_handler () =
  (* with an empty registry no file may consume a control exception *)
  assert_flags "control exception caught off-registry"
    "src-control-exn-handler"
    [ ( "m.ml",
        {|
let quiet f =
  try f () with Rdb_exec.Executor.Work_budget_exceeded _ -> ()
|} ) ]

let mutant_control_exn_handler_registered () =
  (* the same handler is legal at its registry-pinned site *)
  let r =
    analyze
      ~handlers:
        [ { Registry.hsuffix = "ok.ml"; hexns = [ "Work_budget_exceeded" ] } ]
      [ ( "ok.ml",
          {|
let quiet f =
  try f () with Rdb_exec.Executor.Work_budget_exceeded _ -> ()
|} ) ]
  in
  check
    Alcotest.(list string)
    (Printf.sprintf "registered handler site is clean (got: %s)"
       (String.concat ", " (error_codes r)))
    [] (error_codes r)

let mutant_bare_swallow () =
  assert_flags "catch-all swallow" "src-bare-swallow"
    [ ("m.ml", {|
let swallow f = try f () with _ -> ()
|}) ]

let mutant_reraise_drops_cleanup () =
  (* catching and re-raising is not releasing: the channel still leaks,
     but a re-raise is not a swallow *)
  let r =
    analyze
      [ ( "m.ml",
          {|
let head path =
  let ic = open_in path in
  try really_input_string ic 4
  with e -> raise e
|} ) ]
  in
  check Alcotest.bool
    (Printf.sprintf "re-raise still leaks (got: %s)"
       (String.concat ", " (codes r)))
    true (has "src-exn-leak" r);
  check Alcotest.bool "re-raise is not a bare swallow" false
    (has "src-bare-swallow" r)

let mutant_annotation_out_of_scope () =
  (* @cleanup_ok covers its own and the next line only: three lines above
     the acquisition it suppresses nothing *)
  assert_flags "@cleanup_ok too far from the acquisition" "src-exn-leak"
    [ ( "m.ml",
        {|
(* @cleanup_ok dropped by a caller that does not exist *)
let unrelated = 1

let leaky path =
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  line
|} ) ]

(* ---- non-findings: the analyzer must stay silent on sound shapes ---- *)

let clean_patterns () =
  let r =
    analyze
      [ ( "m.ml",
          {|
let mu = Mutex.create ()
let n = ref 0

let protected () = Mutex.protect mu (fun () -> incr n)

let unlock_on_both () =
  Mutex.lock mu;
  if !n < 0 then begin
    Mutex.unlock mu;
    failwith "negative"
  end;
  incr n;
  Mutex.unlock mu

let with_file path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let release_on_both_exits path =
  let ic = open_in path in
  match input_line ic with
  | line ->
    close_in ic;
    line
  | exception (End_of_file | Sys_error _) ->
    close_in ic;
    ""

let lookup tbl k = try Some (Hashtbl.find tbl k) with Not_found -> None

(* @swallow_ok test helper; nothing downstream depends on the outcome *)
let swallowed f = try f () with _ -> ()
|} ) ]
  in
  check
    Alcotest.(list string)
    (Printf.sprintf "no errors on sound shapes (got: %s)"
       (String.concat ", " (error_codes r)))
    [] (error_codes r);
  check Alcotest.int "clean exit code" 0 (Srclint.exit_code r)

let clean_releases_annotation () =
  (* the helper's release is invisible to the heuristics: only the
     @releases contract keeps the caller clean *)
  let r =
    analyze
      [ ( "m.ml",
          {|
(* @releases ic *)
let hand_back ic = ignore ic

let use path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> hand_back ic) (fun () -> input_line ic)
|} ) ]
  in
  check
    Alcotest.(list string)
    (Printf.sprintf "@releases trusted in ~finally (got: %s)"
       (String.concat ", " (error_codes r)))
    [] (error_codes r)

(* ---- the real tree ---- *)

let real_tree_root () =
  match Srclint.find_default_root () with
  | Some root -> root
  | None -> Alcotest.fail "cannot locate lib/ from the test runtime dir"

let real_tree_is_clean () =
  let r = Srclint.analyze_tree Srclint.Exnflow ~root:(real_tree_root ()) () in
  let errs =
    List.map
      (fun (i : Srclint.item) ->
        Printf.sprintf "%s:%d %s" i.file i.line (Finding.to_string i.finding))
      (Srclint.errors r)
  in
  check Alcotest.(list string) "zero errors on the annotated tree" [] errs;
  check Alcotest.int "clean tree exit code" 0 (Srclint.exit_code r)

let real_tree_inventory () =
  let r = Srclint.analyze_tree Srclint.Exnflow ~root:(real_tree_root ()) () in
  let summaries =
    match r.Srclint.inventory with
    | Srclint.Flows { summaries; _ } -> summaries
    | Srclint.Locks _ -> Alcotest.fail "exnflow report without summaries"
  in
  let find name =
    match List.assoc_opt name summaries with
    | Some s -> s
    | None -> Alcotest.failf "no summary for %s" name
  in
  let spend = find "executor.spend" in
  check Alcotest.bool "executor.spend raises Work_budget_exceeded" true
    (List.mem "Work_budget_exceeded" spend.Exnflow.si_raises);
  let await = find "pool.await" in
  check Alcotest.bool "pool.await re-raises arbitrary task exceptions" true
    await.Exnflow.si_any;
  (* the unlock-before-raise lives in [await]'s local [wait] loop; its
     summary is what keeps the lock-leak check quiet without annotations *)
  let wait = find "pool.wait" in
  check Alcotest.bool "pool.await's wait loop releases the future lock" true
    (List.mem "lock:pool.fmu" wait.Exnflow.si_releases);
  let hc = find "frontend.handle_connection" in
  check
    Alcotest.(list string)
    "handle_connection lets nothing escape its thread" []
    hc.Exnflow.si_raises;
  check Alcotest.bool "handle_connection has no unknown escapes" false
    hc.Exnflow.si_any

(* ---- regressions: the real error-path bugs this analyzer surfaced ---- *)

let make_session ?(scale = 0.02) () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~scale () in
  let session = Session.create catalog in
  Session.analyze session;
  (catalog, session)

(* An aborted [Reopt.run] must drop its temp tables even under
   [~cleanup:false]: the caller never learns the names of an aborted
   run's temps, so keeping them would strand catalog entries forever. *)
let regression_reopt_abort_drops_temps () =
  let run_abort ~cleanup =
    let catalog, session = make_session () in
    let tables_before = List.map Table.name (Catalog.tables catalog) in
    let q = Rdb_imdb.Job_queries.find catalog "6d" in
    (* calibrate: a full run tells us how much work the final execution
       needs; just under that aborts after the temps are materialized *)
    let outcome =
      Reopt.run session ~trigger:(Trigger.create 2.0) ~mode:Estimator.Default q
    in
    check Alcotest.bool "calibration run took a step" true
      (outcome.Reopt.steps <> []);
    (* the budget is per executor call; aim it just under the single
       biggest call so every earlier materialization (and its temp-table
       registration) completes before the abort *)
    let works =
      List.map (fun s -> s.Reopt.mat_work) outcome.Reopt.steps
      @ [ outcome.Reopt.final_exec.Executor.work ]
    in
    let biggest = List.fold_left max 0 works in
    let first_at_max =
      let rec go i = function
        | [] -> -1
        | w :: _ when w = biggest -> i
        | _ :: rest -> go (i + 1) rest
      in
      go 0 works
    in
    check Alcotest.bool "abort lands after the first materialization" true
      (first_at_max > 0);
    let budget = biggest - 1 in
    let catalog2, session2 = make_session () in
    let q2 = Rdb_imdb.Job_queries.find catalog2 "6d" in
    (match
       Reopt.run session2 ~cleanup ~work_budget:budget
         ~trigger:(Trigger.create 2.0) ~mode:Estimator.Default q2
     with
    | _ -> Alcotest.fail "expected the budget to abort the run"
    | exception Executor.Work_budget_exceeded _ -> ());
    let tables_after = List.map Table.name (Catalog.tables catalog2) in
    check
      (Alcotest.list Alcotest.string)
      (Printf.sprintf "no temp tables stranded (cleanup=%b)" cleanup)
      tables_before tables_after
  in
  run_abort ~cleanup:true;
  run_abort ~cleanup:false

(* [Service.create] validates the cache capacity before spawning pool
   domains, so a bad config fails fast instead of stranding workers. *)
let regression_service_create_validates_before_spawn () =
  let _, session = make_session ~scale:0.01 () in
  let config = { Service.default_config with cache_capacity = 0; jobs = 2 } in
  Alcotest.check_raises "capacity validated first"
    (Invalid_argument "Plan_cache.create: capacity must be >= 1") (fun () ->
      ignore (Service.create ~config session))

(* A handler exception (here: the service shut down under a live
   connection) must answer ERR internal on the wire and close just that
   connection; the server keeps accepting and shuts down cleanly. *)

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, port) -> port
      | _ -> assert false)

let connect ~port =
  let rec go tries =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.close fd;
      Thread.delay 0.05;
      go (tries - 1)
  in
  go 40

let regression_frontend_handler_error () =
  let _, session = make_session ~scale:0.01 () in
  let service = Service.create session in
  let port = free_port () in
  let server = Thread.create (fun () -> Frontend.serve ~port service) () in
  let before = Metrics.snapshot () in
  (* first client arrives after the service is already shut down: its
     query raises inside the handler *)
  let fd = connect ~port in
  Service.shutdown service;
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  output_string oc "SELECT COUNT(*) FROM title t\n";
  flush oc;
  let reply = input_line ic in
  check Alcotest.bool
    (Printf.sprintf "handler error answered on the wire (got: %s)" reply)
    true
    (String.length reply >= 12 && String.sub reply 0 12 = "ERR internal");
  (* the handler then drops only this connection *)
  check Alcotest.bool "connection closed after the error" true
    (match input_line ic with
    | _ -> false
    | exception End_of_file -> true);
  Unix.close fd;
  (* the accept loop survived: a second client can still shut it down *)
  let fd2 = connect ~port in
  let ic2 = Unix.in_channel_of_descr fd2
  and oc2 = Unix.out_channel_of_descr fd2 in
  output_string oc2 "\\shutdown\n";
  flush oc2;
  check Alcotest.string "clean shutdown" "OK shutting down" (input_line ic2);
  (try Unix.close fd2 with Unix.Unix_error _ -> ());
  Thread.join server;
  let after = Metrics.snapshot () in
  check Alcotest.bool "handler error counted" true
    (Metrics.counter after "serve.handler_errors"
     > Metrics.counter before "serve.handler_errors")

let () =
  Alcotest.run "rdb_exnflow"
    [
      ( "mutants",
        [
          Alcotest.test_case "leaked fd" `Quick mutant_leaked_fd;
          Alcotest.test_case "leaked channel" `Quick mutant_leaked_channel;
          Alcotest.test_case "lock across raise" `Quick mutant_lock_across_raise;
          Alcotest.test_case "spawn escape" `Quick mutant_spawn_escape;
          Alcotest.test_case "control handler off-registry" `Quick
            mutant_control_exn_handler;
          Alcotest.test_case "control handler on-registry" `Quick
            mutant_control_exn_handler_registered;
          Alcotest.test_case "bare swallow" `Quick mutant_bare_swallow;
          Alcotest.test_case "re-raise drops cleanup" `Quick
            mutant_reraise_drops_cleanup;
          Alcotest.test_case "annotation out of scope" `Quick
            mutant_annotation_out_of_scope;
        ] );
      ( "clean",
        [
          Alcotest.test_case "sound shapes" `Quick clean_patterns;
          Alcotest.test_case "releases annotation" `Quick
            clean_releases_annotation;
        ] );
      ( "tree",
        [
          Alcotest.test_case "zero errors" `Quick real_tree_is_clean;
          Alcotest.test_case "summary inventory" `Quick real_tree_inventory;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "reopt abort drops temps" `Slow
            regression_reopt_abort_drops_temps;
          Alcotest.test_case "service create validates first" `Quick
            regression_service_create_validates_before_spawn;
          Alcotest.test_case "frontend handler error" `Quick
            regression_frontend_handler_error;
        ] );
    ]
