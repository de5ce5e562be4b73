type sink =
  | Null
  | Stderr
  | Jsonl of out_channel

(* One process-wide sink, resolved from RDB_TRACE on first use. All
   emission happens under [mu]: spans are coarse (plan / re-opt step /
   grid cell), so serializing the writes costs nothing measurable and
   keeps the JSON-lines file sane when the pool's domains trace
   concurrently. *)
let mu = Mutex.create ()

(* @guarded_by mu *)
let sink : sink option ref = ref None
let t0 = Clock.now_ms ()

let resolve_env () =
  match Sys.getenv_opt "RDB_TRACE" with
  | None | Some "" -> Null
  | Some "stderr" -> Stderr
  | Some path -> Jsonl (open_out path)

(* @with_lock mu *)
let with_mu f = Mutex.protect mu f

let current () =
  with_mu (fun () ->
      match !sink with
      | Some s -> s
      | None ->
        let s = resolve_env () in
        sink := Some s;
        s)

(* @requires mu *)
let close_current () =
  match !sink with
  | Some (Jsonl oc) -> close_out oc
  | Some (Null | Stderr) | None -> ()

let set_sink s =
  with_mu (fun () ->
      close_current ();
      sink := Some s)

let enabled () = match current () with Null -> false | Stderr | Jsonl _ -> true

let flush () =
  with_mu (fun () ->
      match !sink with
      | Some (Jsonl oc) -> Stdlib.flush oc
      | Some (Null | Stderr) | None -> ())

(* Span nesting depth is per-domain state: domains trace independently
   and the pretty-printer's indentation / the JSON depth field must not
   interleave across them. *)
(* @confined per-domain nesting depth via domain-local storage *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let record ~kind ~name ~depth ~start_ms ~dur_ms ~attrs =
  let domain = (Domain.self () :> int) in
  match current () with
  | Null -> ()
  | Stderr ->
    with_mu (fun () ->
        Printf.eprintf "[trace] %s%-*s %s %.3fms%s\n%!"
          (String.make (2 * depth) ' ')
          (Int.max 1 (24 - (2 * depth)))
          name kind dur_ms
          (match attrs with
           | [] -> ""
           | attrs ->
             "  "
             ^ String.concat " "
                 (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) attrs)))
  | Jsonl oc ->
    let line =
      Json.to_string
        (Json.Obj
           ([
              ("name", Json.Str name);
              ("kind", Json.Str kind);
              ("domain", Json.Int domain);
              ("depth", Json.Int depth);
              ("start_ms", Json.Float start_ms);
              ("dur_ms", Json.Float dur_ms);
            ]
           @
           match attrs with
           | [] -> []
           | attrs ->
             [ ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) attrs)) ]))
    in
    with_mu (fun () ->
        output_string oc line;
        output_char oc '\n';
        Stdlib.flush oc)

let span ?(attrs = []) name f =
  match current () with
  | Null -> f ()
  | Stderr | Jsonl _ ->
    let d = Domain.DLS.get depth_key in
    let depth = !d in
    d := depth + 1;
    let start = Clock.now_ms () in
    let finish () =
      d := depth;
      record ~kind:"span" ~name ~depth
        ~start_ms:(start -. t0) ~dur_ms:(Clock.ms_since start)
        ~attrs
    in
    (match f () with
     | v -> finish (); v
     | exception e ->
       finish ();
       raise e)

let event ?(attrs = []) name =
  match current () with
  | Null -> ()
  | Stderr | Jsonl _ ->
    record ~kind:"event" ~name
      ~depth:!(Domain.DLS.get depth_key)
      ~start_ms:(Clock.ms_since t0)
      ~dur_ms:0.0 ~attrs
