(* What a run reports, how it is printed, and how two reports compare. *)

module Json = Rdb_obs.Json

type better = Lower | Higher

type spec = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
      (** share of the base value by which the metric may worsen; [None]
          for metrics that are printed but never judged *)
}

let spec ?bound name unit better = { name; unit; better; bound }

(* The end-to-end metrics every untraced run reports; BENCHMARK.json lists
   the same names, units and bounds. The bounds are as wide as the run-to-
   run spread of a shared two-core host requires (README.md). *)
let end_to_end =
  [
    spec "setup_s" "s" Lower ~bound:0.25;
    spec "throughput_qps" "1/s" Higher ~bound:0.25;
    spec "latency_p50_ms" "ms" Lower ~bound:0.25;
    spec "latency_p90_ms" "ms" Lower ~bound:0.25;
    spec "peak_rss_mb" "MB" Lower ~bound:0.25;
  ]

(* Failures may not rise at all. It is 0 on a healthy run, so it is judged
   here but cannot be one of BENCHMARK.json's never-zero metrics. *)
let error_rate = spec "error_rate" "ratio" Lower ~bound:0.0

(* The per-layer metrics every traced run reports and BENCHMARK.json
   lists: times only for layers every workload calls, so none reads a
   constant zero; the layers particular to one workload show up as
   deterministic counts. Every other layer's time is in the full report. *)
let per_layer =
  [
    spec "sql.ms_per_query" "ms" Lower;
    spec "core.session.ms_per_query" "ms" Lower;
    spec "plan.optimizer.ms_per_query" "ms" Lower;
    spec "exec.executor.ms_per_query" "ms" Lower;
    spec "exec.executor.ms_per_mwork" "ms/Mwork" Lower;
    spec "unattributed.ms_per_query" "ms" Lower;
    spec "trace.coverage" "ratio" Higher;
    spec "trace.overhead_pct" "%" Lower;
    spec "plan.optimizer.dp_pairs_per_query" "count" Lower;
    spec "exec.executor.work_per_query" "count" Lower;
    spec "exec.materialize.work_per_query" "count" Lower;
    spec "storage.temp_table.rows_per_query" "count" Lower;
    spec "core.reopt.steps_per_query" "count" Lower;
    spec "server.plan_cache.hit_rate" "ratio" Higher;
    spec "server.plan_cache.evictions" "count" Lower;
    spec "server.plan_cache.invalidations" "count" Lower;
  ]

let find_spec name =
  List.find_opt (fun s -> s.name = name) ((error_rate :: end_to_end) @ per_layer)

(* The layers a traced run times, each around calls into its public
   functions. *)
let layers =
  [
    "sql";
    "verify.cqnf";
    "server.plan_cache";
    "core.session";
    "plan.optimizer";
    "analysis.resource";
    "card.oracle";
    "exec.executor";
    "exec.materialize";
    "storage.temp_table";
    "stats.analyze";
    "core.reopt";
    "core.feedback";
  ]

(* The time metrics of a traced run: each layer's self time per request,
   the request spans' own self time as [unattributed], and how much of the
   measured wall time the layers cover. [exec_work] is the executor's work
   over the run, for its ms per million work units. *)
let traced_times recorder ~wall_ms ~requests ~exec_work =
  let self = Span.self_ms recorder in
  let per_request ms = ms /. float_of_int requests in
  let layer_ms = List.map (fun l -> (l, self l)) layers in
  let covered = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 layer_ms in
  List.map (fun (l, ms) -> (l ^ ".ms_per_query", per_request ms, "ms")) layer_ms
  @ [
      ("unattributed.ms_per_query", per_request (self Span.request_name), "ms");
      ( "exec.executor.ms_per_mwork",
        self "exec.executor" /. (float_of_int exec_work /. 1e6),
        "ms/Mwork" );
      ("trace.coverage", covered /. wall_ms, "ratio");
      ( "trace.overhead_pct",
        100.0 *. float_of_int (Span.count recorder) *. Span.cost_ns ()
        /. (wall_ms *. 1e6),
        "%" );
    ]

type outcome = {
  workload : string;
  traced : bool;
  attempted : int;
  failed : int;
      (** parse or bind errors, budget aborts, rejections and wrong
          answers *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  det : (string * Json.t) list;
      (** fields that must repeat exactly on the same seed *)
}

(* ---- the header every report carries ---- *)

let header ~scale ~seed ~jobs ~clients =
  let gc = Gc.get () in
  Json.Obj
    [
      ("scale", Json.Float scale);
      ("data_seed", Json.Int Db.data_seed);
      ("seed", Json.Int seed);
      ("jobs", Json.Int jobs);
      ("clients", Json.Int clients);
      ("work_budget", Json.Int Db.work_budget);
      ("reopt_threshold", Json.Float Db.threshold);
      ("clock", Json.Str "bechamel.monotonic_clock");
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ( "ocamlrunparam",
        Json.Str (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM")) );
      ( "gc",
        Json.Obj
          [
            ("minor_heap_size", Json.Int gc.Gc.minor_heap_size);
            ("space_overhead", Json.Int gc.Gc.space_overhead);
          ] );
    ]

(* Header fields two reports must share to be compared at all. *)
let comparable_fields = [ "scale"; "data_seed"; "seed"; "jobs"; "clients" ]

(* ---- output ---- *)

let to_json ~header o =
  Json.Obj
    [
      ("header", header);
      ("workload", Json.Str o.workload);
      ("traced", Json.Bool o.traced);
      ("correct", Json.Bool (o.failed = 0));
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v, u) ->
               (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
             o.metrics) );
      ("deterministic", Json.Obj o.det);
    ]

let print_metrics o =
  List.iter (fun (n, v, u) -> Printf.printf "%s %.6g %s\n" n v u) o.metrics

(* The shortest decimal that reads back as exactly [v]. *)
let exact v =
  let short = Printf.sprintf "%.15g" v in
  if float_of_string short = v then short else Printf.sprintf "%.17g" v

(* The one-line summary: the end-to-end metrics of an untraced run or the
   per-layer metrics of a traced one, every value with all its digits. *)
let summary_line o =
  let specs = if o.traced then per_layer else end_to_end in
  let metric s =
    match List.find_opt (fun (n, _, _) -> n = s.name) o.metrics with
    | Some (_, v, _) when Float.is_finite v ->
      Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" s.name (exact v) s.unit
    | Some _ | None -> failwith ("ledger: no finite value for " ^ s.name)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", " (List.map metric specs))

let write path json =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
    match Json.parse_opt text with
    | Some j -> Ok j
    | None -> Error (path ^ ": not valid JSON"))

(* ---- diff ---- *)

let field key = function
  | Json.Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let number = function
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* The runs of a report: a single run, or the [runs] list of [all]. *)
let runs_of doc =
  match field "runs" doc with
  | Some (Json.List rs) -> rs
  | _ -> [ doc ]

let run_key r =
  match (field "workload" r, field "traced" r) with
  | Some (Json.Str w), Some (Json.Bool t) -> Some (w, t)
  | _ -> None

let fields key r =
  match field key r with Some (Json.Obj kvs) -> kvs | _ -> []

let value_of m = number (field "value" m)

(* Compare report [b] against base [a]: deterministic fields must be
   identical, judged metrics may not worsen by more than their bound.
   Prints one line per comparison and returns the number of violations. *)
let diff a b =
  let violations = ref 0 in
  let violate fmt =
    incr violations;
    Printf.printf ("VIOLATION " ^^ fmt ^^ "\n")
  in
  let header d = Option.value ~default:Json.Null (field "header" d) in
  List.iter
    (fun k ->
      if field k (header a) <> field k (header b) then
        violate "header field %s differs" k)
    comparable_fields;
  let compare_metric label (name, ma) mb =
    match (value_of ma, Option.bind (List.assoc_opt name mb) value_of) with
    | Some va, Some vb -> (
      let ratio =
        if va = 0.0 then if vb = 0.0 then 1.0 else infinity else vb /. va
      in
      match find_spec name with
      | Some { bound = Some bound; better; _ } ->
        let worse =
          match better with
          | Lower -> vb > va *. (1.0 +. bound)
          | Higher -> vb < va *. (1.0 -. bound)
        in
        if worse then
          violate "%s: %s %.6g -> %.6g (x%.3f of base, bound %.0f%%)" label
            name va vb ratio (bound *. 100.0)
        else
          Printf.printf "  %-44s %.6g -> %.6g  x%.3f (bound %.0f%%)\n" name va
            vb ratio (bound *. 100.0)
      | Some { bound = None; _ } | None ->
        Printf.printf "  %-44s %.6g -> %.6g  x%.3f\n" name va vb ratio)
    | _ -> violate "%s: %s missing or not a number" label name
  in
  let compare_run label ra rb =
    Printf.printf "# %s\n" label;
    let det_b = fields "deterministic" rb in
    List.iter
      (fun (k, va) ->
        match List.assoc_opt k det_b with
        | Some vb when vb = va -> Printf.printf "  %-44s identical\n" k
        | Some vb ->
          violate "%s: %s differs: %s vs %s" label k (Json.to_string va)
            (Json.to_string vb)
        | None -> violate "%s: %s missing" label k)
      (fields "deterministic" ra);
    let mb = fields "metrics" rb in
    List.iter (fun m -> compare_metric label m mb) (fields "metrics" ra)
  in
  let b_runs =
    List.filter_map (fun r -> Option.map (fun k -> (k, r)) (run_key r)) (runs_of b)
  in
  List.iter
    (fun ra ->
      match run_key ra with
      | None -> violate "malformed run in base report"
      | Some ((w, t) as key) -> (
        let label = if t then w ^ " (traced)" else w in
        match List.assoc_opt key b_runs with
        | Some rb -> compare_run label ra rb
        | None -> violate "%s: missing from the second report" label))
    (runs_of a);
  !violations
