module Metrics = Rdb_obs.Metrics
module Json = Rdb_obs.Json

(* Line-oriented SQL-over-socket frontend.

   One request per line. Plain lines are SQL; lines starting with a
   backslash are commands:

     \quit       close this connection
     \cache      one-line cache statistics
     \metrics    the whole metrics registry as one JSON line
     \resources  admission budget, counters, cached certificates (JSON)
     \refresh    re-ANALYZE every table (bumps every modification counter)
     \shutdown   stop accepting, drain, and return from [serve]

   Responses are single lines:

     OK hit|revalidated|miss plan=<ms> exec=<ms> rows=<n> steps=<k> aggs=<v1>,<v2>,...
     ERR <message>

   Connections are handled on system threads (not domains): a handler
   spends its life blocked on socket reads or on a pool future, so threads
   are the right weight, and the worker domains of the service pool provide
   the actual query parallelism. *)

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let respond service oc line =
  match Service.query service line with
  | Ok r ->
    Printf.fprintf oc "OK %s plan=%.3fms exec=%.3fms rows=%d steps=%d aggs=%s\n"
      (Service.cached_name r.Service.r_cached)
      r.Service.r_plan_ms r.Service.r_exec_ms r.Service.r_rows
      r.Service.r_reopt_steps
      (one_line
         (String.concat "," (List.map Value.to_string r.Service.r_aggs)))
  | Error msg -> Printf.fprintf oc "ERR %s\n" (one_line msg)

let handle_line service ~stop oc line =
  match String.trim line with
  | "" -> true
  | "\\quit" -> Printf.fprintf oc "OK bye\n"; false
  | "\\shutdown" ->
    Printf.fprintf oc "OK shutting down\n";
    flush oc;
    stop ();
    false
  | "\\cache" ->
    let c = Service.cache service in
    Printf.fprintf oc "OK cache size=%d capacity=%d generation=%d\n"
      (Plan_cache.size c) (Plan_cache.capacity c)
      (Service.generation service);
    true
  | "\\metrics" ->
    Printf.fprintf oc "%s\n" (Json.to_string (Metrics.to_json (Metrics.snapshot ())));
    true
  | "\\resources" ->
    Printf.fprintf oc "%s\n" (Json.to_string (Service.resources_json service));
    true
  | "\\refresh" ->
    Service.refresh_stats service ();
    Printf.fprintf oc "OK refreshed generation=%d\n" (Service.generation service);
    true
  | line when line.[0] = '\\' ->
    Printf.fprintf oc "ERR unknown command %s\n" (one_line line);
    true
  | sql -> respond service oc sql; true

(* Open connection fds, owned by whoever removes them: a handler closing
   its own connection and [stop] closing every live one race only on the
   registry mutex, so each fd is closed exactly once and a recycled
   descriptor number is never closed twice. *)
type registry = {
  rmu : Mutex.t;
  (* @guarded_by rmu *)
  mutable fds : Unix.file_descr list;
}

let register reg fd =
  Mutex.protect reg.rmu (fun () -> reg.fds <- fd :: reg.fds)

let claim reg fd =
  Mutex.protect reg.rmu (fun () ->
      let mine = List.memq fd reg.fds in
      if mine then reg.fds <- List.filter (fun f -> not (f == fd)) reg.fds;
      mine)

let claim_all reg =
  Mutex.protect reg.rmu (fun () ->
      let fds = reg.fds in
      reg.fds <- [];
      fds)

let handle_connection service ~stop ~reg fd =
  (* Whatever kills this handler — clean EOF, a broken pipe, or a handler
     exception — the connection fd must be handed back exactly once. *)
  Fun.protect
    ~finally:(fun () ->
      if claim reg fd then (try Unix.close fd with Unix.Unix_error _ -> ()))
    (fun () ->
      let ic = Unix.in_channel_of_descr fd
      and oc = Unix.out_channel_of_descr fd in
      Metrics.incr "serve.connections";
      let rec loop () =
        match input_line ic with
        | exception (End_of_file | Sys_error _ | Unix.Unix_error _) -> ()
        | line ->
          let continue =
            match handle_line service ~stop oc line with
            | c -> (
              try
                flush oc;
                c
              with Sys_error _ | Unix.Unix_error _ -> false)
            | exception (Sys_error _ | Unix.Unix_error _) -> false
            | exception e ->
              (* A handler error (service already shut down, malformed
                 internal state, ...) must not kill the thread silently:
                 answer on the wire if we still can, then drop just this
                 connection. *)
              Metrics.incr "serve.handler_errors";
              (try
                 Printf.fprintf oc "ERR internal %s\n"
                   (one_line (Printexc.to_string e));
                 flush oc
               with Sys_error _ | Unix.Unix_error _ -> ());
              false
          in
          if continue then loop ()
      in
      loop ())

let serve ?(host = "127.0.0.1") ~port service =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let reg = { rmu = Mutex.create (); fds = [] } in
  let stop_mu = Mutex.create () in
  (* @guarded_by stop_mu *)
  let stopping = ref false in
  let stop () =
    let first =
      Mutex.protect stop_mu (fun () ->
          let f = not !stopping in
          stopping := true;
          f)
    in
    if first then begin
      (* [shutdown] on the listener wakes a thread blocked in accept(2)
         (plain [close] does not) — the accept loop's clean exit path —
         and closing every live connection unblocks its handler thread so
         the final join cannot hang. *)
      (try Unix.shutdown listener Unix.SHUTDOWN_ALL
       with Unix.Unix_error _ -> ());
      (try Unix.close listener with Unix.Unix_error _ -> ());
      List.iter
        (fun fd ->
          (* [shutdown] (unlike [close]) interrupts a handler blocked in a
             read on this connection. *)
          (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ())
        (claim_all reg)
    end
  in
  let threads_mu = Mutex.create () in
  (* @guarded_by threads_mu *)
  let threads = ref [] in
  let rec accept_loop () =
    match Unix.accept listener with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | exception Unix.Unix_error _ -> ()
    | fd, _peer ->
      register reg fd;
      let th =
        Thread.create (fun () -> handle_connection service ~stop ~reg fd) ()
      in
      Mutex.protect threads_mu (fun () -> threads := th :: !threads);
      accept_loop ()
  in
  (* bind/listen run inside the protect: an EADDRINUSE here must close the
     listener (via [stop]) instead of leaking it to the caller's retry loop *)
  Fun.protect ~finally:stop (fun () ->
      Unix.setsockopt listener Unix.SO_REUSEADDR true;
      Unix.bind listener addr;
      Unix.listen listener 16;
      accept_loop ());
  let to_join =
    Mutex.protect threads_mu (fun () ->
        let ts = !threads in
        threads := [];
        ts)
  in
  List.iter Thread.join to_join
