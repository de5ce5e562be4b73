(* The database every workload runs against, its set-up, and the answers
   it must give. *)

module Session = Rdb_core.Session
module Reopt = Rdb_core.Reopt
module Trigger = Rdb_core.Trigger
module Estimator = Rdb_card.Estimator
module Json = Rdb_obs.Json

let data_seed = 42
let work_budget = 60_000_000
let threshold = 32.0

type t = {
  catalog : Catalog.t;
  session : Session.t;
  sql : (string * string) array;  (** (query name, SQL text), workload order *)
}

(* The workload's SQL texts: the first [n] JOB queries. *)
let workload_sql n =
  Array.of_list (List.filteri (fun i _ -> i < n) Rdb_imdb.Job_queries.sql)

(* SQL text to bound query: the [sql] layer. *)
let parse_bind catalog ~name text =
  match Rdb_sql.Binder.bind catalog ~name (Rdb_sql.Parser.parse text) with
  | Ok q -> q
  | Error msg -> failwith msg

(* Generate, ANALYZE and bind: the set-up every workload pays. Binding
   validates the whole workload against the fresh catalog. *)
let build ?feedback ~scale ~n () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~seed:data_seed ~scale () in
  let session = Session.create ?feedback catalog in
  Session.analyze session;
  let sql = workload_sql n in
  Array.iter (fun (name, text) -> ignore (parse_bind catalog ~name text)) sql;
  { catalog; session; sql }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    sorted.(min (n - 1) (max 0 (rank - 1)))

(* Run [setup] [reps] times and keep the last result; set-up time is the
   median in seconds, so one slow repetition does not move it. Each
   earlier result is released and the heap compacted, untimed, before the
   next repetition and before the measurement: the repetitions exist only
   to time set-up, and their leftovers must not raise the run's peak
   memory. *)
let timed_setups ~reps ~release setup =
  let last = ref None in
  let times =
    List.init reps (fun _ ->
        Option.iter release !last;
        last := None;
        Gc.compact ();
        let t0 = Span.now_ns () in
        last := Some (setup ());
        Span.ms_since t0 /. 1000.0)
  in
  Gc.compact ();
  (Option.get !last, median times)

(* ---- answers ---- *)

let value_to_json = function
  | Value.Null -> Json.Null
  | Value.Int i -> Json.Int i
  | Value.Str s -> Json.Str s

let value_of_json = function
  | Json.Null -> Some Value.Null
  | Json.Int i -> Some (Value.Int i)
  | Json.Str s -> Some (Value.Str s)
  | Json.Bool _ | Json.Float _ | Json.List _ | Json.Obj _ -> None

type answers = (string, Value.t list) Hashtbl.t

(* The answer key as JSON text, one query per line. *)
let answers_to_string ~scale (a : answers) =
  let names = List.sort compare (List.of_seq (Hashtbl.to_seq_keys a)) in
  let entry n =
    Json.to_string (Json.Str n) ^ ": "
    ^ Json.to_string (Json.List (List.map value_to_json (Hashtbl.find a n)))
  in
  Printf.sprintf "{\"scale\": %s, \"data_seed\": %d, \"answers\": {\n%s\n}}\n"
    (Json.to_string (Json.Float scale)) data_seed
    (String.concat ",\n" (List.map entry names))

let load_answers ~scale path : (answers, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
    match Json.parse_opt text with
    | Some
        (Json.Obj
          [
            ("scale", Json.Float s);
            ("data_seed", Json.Int d);
            ("answers", Json.Obj entries);
          ])
      when s = scale && d = data_seed ->
      let a = Hashtbl.create 128 in
      let ok =
        List.for_all
          (fun (name, v) ->
            match v with
            | Json.List vs ->
              let vals = List.filter_map value_of_json vs in
              List.compare_lengths vals vs = 0
              && (Hashtbl.replace a name vals;
                  true)
            | _ -> false)
          entries
      in
      if ok then Ok a else Error (path ^ ": malformed answer")
    | Some _ ->
      Error
        (Printf.sprintf "%s: not the answers for scale %g, data seed %d" path
           scale data_seed)
    | None -> Error (path ^ ": not valid JSON"))

(* The reference answers, computed twice — Default plans and the reopt-32
   loop — and accepted only when both agree on every query. *)
let reference db : (answers, string) result =
  let a = Hashtbl.create 128 in
  let disagree =
    Array.to_list db.sql
    |> List.filter_map (fun (name, text) ->
        let q = parse_bind db.catalog ~name text in
        let p = Session.prepare db.session q in
        let plan, _, _ = Session.plan p ~mode:Estimator.Default in
        let default =
          (Session.execute ~work_budget p plan).Rdb_exec.Executor.aggs
        in
        let reopt =
          (Reopt.run ~work_budget db.session ~trigger:(Trigger.create threshold)
             ~mode:Estimator.Default q)
            .Reopt.final_exec.Rdb_exec.Executor.aggs
        in
        Hashtbl.replace a name default;
        if List.equal Value.equal default reopt then None else Some name)
  in
  match disagree with
  | [] -> Ok a
  | names ->
    Error ("Default and reopt-32 answers differ on " ^ String.concat ", " names)

(* Every answer a run gives is checked here, and remembered for the run's
   digest. Not shared across domains: each client keeps its own and the
   run merges them. *)
type checker = { expected : answers; seen : answers }

let checker expected = { expected; seen = Hashtbl.create 128 }

let check c name aggs =
  Hashtbl.replace c.seen name aggs;
  match Hashtbl.find_opt c.expected name with
  | Some e -> List.equal Value.equal e aggs
  | None -> false

let merge into c = Hashtbl.iter (Hashtbl.replace into.seen) c.seen

(* A digest of every (query, answer) pair a run saw: two runs that
   answered the same queries identically have the same digest. *)
let digest (a : answers) =
  Hashtbl.to_seq a |> List.of_seq |> List.sort compare
  |> List.map (fun (n, vals) ->
      n ^ "=" ^ String.concat "|" (List.map Value.to_string vals))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex
