(* The ledger's one clock and its in-memory span recorder.

   Every duration the ledger reports comes from [now_ns], bechamel's
   monotonic clock. Traced runs record one span around each call into a
   layer's public functions; spans stay in memory and are written out as
   JSON-lines once the run ends, so recording costs a clock read and a
   cons per span. The recorder is not domain-safe: traced runs are
   single-domain by design. *)

let now_ns () = Monotonic_clock.now ()

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let ms_since t0 = ms_between t0 (now_ns ())

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  req : int;     (** request id, -1 outside any request *)
  start_ns : int64;
  stop_ns : int64;
}

type recorder = {
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable open_ids : int list;  (* innermost first *)
  mutable req : int;
}

let create () = { spans = []; next_id = 0; open_ids = []; req = -1 }

let active : recorder option ref = ref None

let record r name f =
  let id = r.next_id in
  r.next_id <- id + 1;
  let parent = match r.open_ids with p :: _ -> p | [] -> -1 in
  r.open_ids <- id :: r.open_ids;
  let req = r.req in
  let start_ns = now_ns () in
  let close () =
    let stop_ns = now_ns () in
    r.open_ids <- List.tl r.open_ids;
    r.spans <- { id; name; parent; req; start_ns; stop_ns } :: r.spans
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close ();
    Printexc.raise_with_backtrace e bt

(* [time layer f]: [f ()], inside a span named [layer] when recording. *)
let time name f = match !active with None -> f () | Some r -> record r name f

let request_name = "request"

(* One request's span; its self time is the ledger's [unattributed] line. *)
let request id f =
  match !active with
  | None -> f ()
  | Some r ->
    r.req <- id;
    Fun.protect
      ~finally:(fun () -> r.req <- -1)
      (fun () -> record r request_name f)

let with_recorder r f =
  active := Some r;
  Fun.protect ~finally:(fun () -> active := None) f

let count r = r.next_id

(* Self time per span name: a span's duration minus the time its direct
   children cover. Spans nest strictly on one domain, so the children's
   durations never overlap and their sum is exactly the covered part. *)
let self_ms r =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev =
          Option.value ~default:0L (Hashtbl.find_opt child_ns s.parent)
        in
        Hashtbl.replace child_ns s.parent
          (Int64.add prev (Int64.sub s.stop_ns s.start_ns)))
    r.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0L (Hashtbl.find_opt child_ns s.id) in
      let self =
        Int64.to_float (Int64.sub (Int64.sub s.stop_ns s.start_ns) covered)
        /. 1e6
      in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (prev +. self))
    r.spans;
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt by_name name)

(* What one span costs to record, from a throwaway recorder; the traced
   run's [trace.overhead_pct] is its span count times this. *)
let cost_ns () =
  let r = create () in
  let n = 20_000 in
  let t0 = now_ns () in
  for _ = 1 to n do
    record r "calibrate" ignore
  done;
  Int64.to_float (Int64.sub (now_ns ()) t0) /. float_of_int n

(* One JSON object per span, oldest first; times in microseconds from the
   first span's start. *)
let write_jsonl r path =
  let module J = Rdb_obs.Json in
  let origin =
    List.fold_left (fun acc s -> if s.start_ns < acc then s.start_ns else acc)
      Int64.max_int r.spans
  in
  let us t = J.Int (Int64.to_int (Int64.div (Int64.sub t origin) 1000L)) in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("id", J.Int s.id);
                    ("name", J.Str s.name);
                    ("parent", J.Int s.parent);
                    ("req", J.Int s.req);
                    ("start_us", us s.start_ns);
                    ("end_us", us s.stop_ns);
                  ]));
          output_char oc '\n')
        (List.rev r.spans))
