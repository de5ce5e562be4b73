module Pool = Rdb_util.Pool

let check = Alcotest.check

(* Every submitted task runs exactly once, whatever the worker count. *)
let test_all_tasks_run_once () =
  List.iter
    (fun jobs ->
      let ran = Array.make 200 0 in
      let results =
        Pool.with_pool jobs (fun pool ->
            Pool.map pool
              (fun i ->
                ran.(i) <- ran.(i) + 1;
                i * i)
              (Array.init 200 Fun.id))
      in
      Array.iteri
        (fun i n ->
          check Alcotest.int (Printf.sprintf "jobs=%d task %d runs once" jobs i) 1 n)
        ran;
      Array.iteri
        (fun i r ->
          check Alcotest.int (Printf.sprintf "jobs=%d result %d" jobs i) (i * i) r)
        results)
    [ 1; 2; 4; 7 ]

(* Results come back in submission order, not completion order: make the
   early tasks the slow ones so eager workers finish the tail first. *)
let test_results_order_independent () =
  let spin n =
    let acc = ref 0 in
    for i = 1 to n do
      acc := (!acc + i) mod 1000003
    done;
    !acc
  in
  let results =
    Pool.with_pool 4 (fun pool ->
        Pool.map pool
          (fun i ->
            ignore (spin (if i < 8 then 2_000_000 else 100));
            i)
          (Array.init 64 Fun.id))
  in
  Array.iteri
    (fun i r -> check Alcotest.int "in submission order" i r)
    results

(* An exception inside a worker re-raises at the submitter's await, and
   the surviving tasks still complete. *)
let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Pool.with_pool jobs (fun pool ->
          let ok = Pool.submit pool (fun () -> 21 * 2) in
          let bad = Pool.submit pool (fun () -> failwith "boom") in
          let also_ok = Pool.submit pool (fun () -> "alive") in
          check Alcotest.int "before the failure" 42 (Pool.await ok);
          (match Pool.await bad with
           | _ -> Alcotest.fail "expected Failure to propagate"
           | exception Failure msg -> check Alcotest.string "message" "boom" msg);
          check Alcotest.string "after the failure" "alive" (Pool.await also_ok)))
    [ 1; 4 ]

(* A 1-job pool is direct execution: inline, on the submitting domain, in
   submission order — side effects are visible before await. *)
let test_jobs1_is_direct_execution () =
  let pool = Pool.create 1 in
  let trace = ref [] in
  let futures =
    List.map
      (fun i -> Pool.submit pool (fun () -> trace := i :: !trace; i))
      [ 0; 1; 2; 3 ]
  in
  check (Alcotest.list Alcotest.int) "ran inline, in order" [ 3; 2; 1; 0 ] !trace;
  check (Alcotest.list Alcotest.int) "await returns stored results" [ 0; 1; 2; 3 ]
    (List.map Pool.await futures);
  let direct = List.map (fun i -> i * 7) [ 1; 2; 3 ] in
  let pooled = Pool.run pool (List.map (fun i () -> i * 7) [ 1; 2; 3 ]) in
  check (Alcotest.list Alcotest.int) "matches direct execution" direct pooled;
  Pool.shutdown pool

let test_create_rejects_zero () =
  check Alcotest.bool "raises" true
    (try ignore (Pool.create 0); false with Invalid_argument _ -> true)

let test_submit_after_shutdown_rejected () =
  List.iter
    (fun jobs ->
      let pool = Pool.create jobs in
      check Alcotest.int "works before shutdown" 5
        (Pool.await (Pool.submit pool (fun () -> 5)));
      Pool.shutdown pool;
      Pool.shutdown pool;
      check Alcotest.bool "submit after shutdown raises" true
        (try ignore (Pool.submit pool (fun () -> 0)); false
         with Invalid_argument _ -> true))
    [ 1; 2 ]

(* Two domains racing to shut the same pool down: exactly one joins the
   workers, the other returns without raising — shutdown is idempotent
   and thread-safe, so a failing connection handler and the accept loop
   can both reach for it. *)
let test_concurrent_shutdown () =
  for _ = 1 to 20 do
    let pool = Pool.create 4 in
    let futures = List.init 32 (fun i -> Pool.submit pool (fun () -> i)) in
    let racers =
      List.init 3 (fun _ -> Domain.spawn (fun () -> Pool.shutdown pool))
    in
    Pool.shutdown pool;
    List.iter Domain.join racers;
    List.iteri
      (fun i fut -> check Alcotest.int "drained despite the race" i (Pool.await fut))
      futures
  done

(* A task that raises must not take its worker down with it: the pool
   keeps draining, and shutdown still joins cleanly. *)
let test_failing_task_never_wedges_shutdown () =
  let pool = Pool.create 2 in
  let bad = List.init 8 (fun _ -> Pool.submit pool (fun () -> failwith "die")) in
  let good = List.init 8 (fun i -> Pool.submit pool (fun () -> i * 3)) in
  Pool.shutdown pool;
  List.iter
    (fun fut ->
      match Pool.await fut with
      | _ -> Alcotest.fail "expected the task's failure"
      | exception Failure _ -> ())
    bad;
  List.iteri
    (fun i fut -> check Alcotest.int "survivors drained" (i * 3) (Pool.await fut))
    good

(* Shutdown drains tasks that are still queued. *)
let test_shutdown_drains () =
  let pool = Pool.create 2 in
  let futures = List.init 50 (fun i -> Pool.submit pool (fun () -> i + 1)) in
  Pool.shutdown pool;
  List.iteri
    (fun i fut -> check Alcotest.int "drained result" (i + 1) (Pool.await fut))
    futures

(* A one-shot latch: [wait] blocks until [open_] has been called. *)
let latch () = (Mutex.create (), Condition.create (), ref false)

let open_ (mu, cond, opened) =
  Mutex.protect mu (fun () ->
      opened := true;
      Condition.broadcast cond)

let wait (mu, cond, opened) =
  Mutex.protect mu (fun () ->
      while not !opened do
        Condition.wait cond mu
      done)

(* Queued tasks start in submission order: with both workers held, queue
   eight tasks, free one worker, and it must start them first to last. *)
let test_queued_tasks_start_in_order () =
  let pool = Pool.create 2 in
  let holds = List.init 2 (fun _ -> (latch (), latch ())) in
  let held =
    List.map
      (fun (started, release) ->
        Pool.submit pool (fun () ->
            open_ started;
            wait release))
      holds
  in
  List.iter (fun (started, _) -> wait started) holds;
  let order_mu = Mutex.create () and order = ref [] in
  let queued =
    List.init 8 (fun i ->
        Pool.submit pool (fun () ->
            Mutex.protect order_mu (fun () -> order := i :: !order)))
  in
  let (_, first), (_, second) = (List.nth holds 0, List.nth holds 1) in
  open_ first;
  List.iter Pool.await queued;
  open_ second;
  List.iter Pool.await held;
  Pool.shutdown pool;
  check (Alcotest.list Alcotest.int) "submission order" (List.init 8 Fun.id)
    (List.rev !order)

let () =
  Alcotest.run "rdb_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "tasks run exactly once" `Quick test_all_tasks_run_once;
          Alcotest.test_case "results order-independent" `Quick
            test_results_order_independent;
          Alcotest.test_case "exceptions propagate" `Quick test_exception_propagates;
          Alcotest.test_case "jobs=1 is direct execution" `Quick
            test_jobs1_is_direct_execution;
          Alcotest.test_case "rejects jobs=0" `Quick test_create_rejects_zero;
          Alcotest.test_case "submit after shutdown" `Quick
            test_submit_after_shutdown_rejected;
          Alcotest.test_case "shutdown drains queue" `Quick test_shutdown_drains;
          Alcotest.test_case "concurrent shutdown is safe" `Quick
            test_concurrent_shutdown;
          Alcotest.test_case "failing task never wedges shutdown" `Quick
            test_failing_task_never_wedges_shutdown;
          Alcotest.test_case "queued tasks start in submission order" `Quick
            test_queued_tasks_start_in_order;
        ] );
    ]
