type 'a state =
  | Pending
  | Value of 'a
  | Exn of exn * Printexc.raw_backtrace

type 'a future = {
  fmu : Mutex.t;
  fcond : Condition.t;
  (* @guarded_by fmu *)
  mutable state : 'a state;
}

type task = Task : (unit -> 'a) * 'a future -> task

type t = {
  size : int;
  mu : Mutex.t;  (* guards queue, stop and domains *)
  cond : Condition.t;
  (* @guarded_by mu *)
  queue : task Queue.t;  (* FIFO: tasks start in submission order *)
  (* @guarded_by mu *)
  mutable stop : bool;
  (* @guarded_by mu *)
  mutable domains : unit Domain.t list;
}

let jobs t = t.size

let default_jobs () = Domain.recommended_domain_count ()

let fresh_future () =
  { fmu = Mutex.create (); fcond = Condition.create (); state = Pending }

let run_now f =
  try Value (f ()) with e -> Exn (e, Printexc.get_raw_backtrace ())

let fulfil fut result =
  Mutex.protect fut.fmu (fun () ->
      fut.state <- result;
      Condition.broadcast fut.fcond)

let worker t =
  Mutex.lock t.mu;
  let rec loop () =
    match Queue.take_opt t.queue with
    | Some (Task (f, fut)) ->
      Mutex.unlock t.mu;
      (* A task exception is routed through the future by [run_now]; the
         outer catch-all is defense in depth: nothing a task does may kill
         the worker domain, or its queued siblings would never be fulfilled
         and their submitters (the server's connection handlers) would
         block forever. *)
      (try fulfil fut (run_now f)
       with e ->
         (* @swallow_ok last-ditch fulfil failed; the worker must survive *)
         (try fulfil fut (Exn (e, Printexc.get_raw_backtrace ())) with _ -> ()));
      Mutex.lock t.mu;
      loop ()
    | None ->
      if t.stop then Mutex.unlock t.mu
      else begin
        Condition.wait t.cond t.mu;
        loop ()
      end
  in
  loop ()

let create size =
  if size < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      size;
      mu = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stop = false;
      domains = [];
    }
  in
  if size > 1 then
    (* @race_ok written once before [t] escapes; [shutdown] re-reads under [mu] *)
    t.domains <- List.init size (fun _ -> Domain.spawn (fun () -> worker t));
  t

let submit t f =
  let fut = fresh_future () in
  if t.size <= 1 then begin
    let stopped = Mutex.protect t.mu (fun () -> t.stop) in
    if stopped then invalid_arg "Pool.submit: pool is shut down";
    (* @race_ok fresh future, not yet shared with any other domain *)
    fut.state <- run_now f;
    fut
  end
  else begin
    Mutex.protect t.mu (fun () ->
        if t.stop then invalid_arg "Pool.submit: pool is shut down";
        Queue.push (Task (f, fut)) t.queue;
        Condition.broadcast t.cond);
    fut
  end

let await fut =
  Mutex.lock fut.fmu;
  let rec wait () =
    match fut.state with
    | Pending ->
      Condition.wait fut.fcond fut.fmu;
      wait ()
    | Value v ->
      Mutex.unlock fut.fmu;
      v
    | Exn (e, bt) ->
      Mutex.unlock fut.fmu;
      Printexc.raise_with_backtrace e bt
  in
  wait ()

let map t f arr =
  let futures = Array.map (fun x -> submit t (fun () -> f x)) arr in
  Array.map await futures

let run t thunks =
  let futures = List.map (submit t) thunks in
  List.map await futures

(* Thread-safe and idempotent: concurrent shutdowns (the accept loop and a
   signal handler, say) race on [stop] and on joining, so the domain list
   is claimed under the lock — exactly one caller joins each domain — and a
   worker that died of an internal error re-raises at its join, which must
   not wedge the caller: the exception is swallowed (task exceptions were
   already routed through their futures; only pool-internal failures are
   lost, and losing them beats hanging the server). *)
let shutdown t =
  let to_join =
    Mutex.protect t.mu (fun () ->
        t.stop <- true;
        Condition.broadcast t.cond;
        let ds = t.domains in
        t.domains <- [];
        ds)
  in
  (* @swallow_ok worker died of a pool-internal error; losing it beats hanging *)
  List.iter (fun d -> try Domain.join d with _ -> ()) to_join

let with_pool size f =
  let t = create size in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
