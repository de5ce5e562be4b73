(* A seconds-long self-check of the ledger at scale 0.02: every workload
   over the first 12 queries, untraced and traced, asserting that

   - each report round-trips through Rdb_obs.Json's strict parser;
   - every metric BENCHMARK.json names is reported, with its unit, and the
     metric table matches BENCHMARK.json's names, units and bounds;
   - the layers of every traced run cover at least 95% of its wall time;
   - the unrolled re-optimization loop matches [Reopt.run] (a traced
     job-reopt32 run counts every mismatch as a failure);
   - all four workloads give every answer the Default and reopt-32
     reference gives. *)

module Json = Rdb_obs.Json

let rec find_up dir file =
  let path = Filename.concat dir file in
  if Sys.file_exists path then Some path
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_up parent file

let better_name = function Report.Lower -> "lower" | Report.Higher -> "higher"

(* BENCHMARK.json's metric list [key] against the ledger's own table. *)
let check_table failed bench key (specs : Report.spec list) =
  let listed =
    match Report.field key bench with
    | Some (Json.List ms) ->
      List.map
        (fun m ->
          ( Report.field "name" m,
            Report.field "unit" m,
            Report.field "better" m,
            Option.map
              (function Json.Float f -> f | _ -> nan)
              (Report.field "bound" m) ))
        ms
    | _ -> []
  in
  let ours =
    List.map
      (fun (s : Report.spec) ->
        ( Some (Json.Str s.name),
          Some (Json.Str s.unit),
          Some (Json.Str (better_name s.better)),
          s.bound ))
      specs
  in
  if listed <> ours then
    failed ("BENCHMARK.json " ^ key ^ " differs from the ledger's metric table")

let run () =
  let failures = ref [] in
  let failed m = failures := m :: !failures in
  let fail fmt = Printf.ksprintf failed fmt in
  let cfg = Workload.small in
  (match find_up (Sys.getcwd ()) "BENCHMARK.json" with
   | None -> fail "BENCHMARK.json not found"
   | Some path -> (
     match Report.read path with
     | Error msg -> fail "%s" msg
     | Ok bench ->
       check_table failed bench "end_to_end" Report.end_to_end;
       check_table failed bench "per_layer" Report.per_layer));
  (match Db.reference (Db.build ~scale:cfg.scale ~n:cfg.n ()) with
   | Error msg -> fail "%s" msg
   | Ok expected ->
     let digest = Db.digest expected in
     List.iter
       (fun workload ->
         List.iter
           (fun traced ->
             let label = workload ^ if traced then " (traced)" else "" in
             let recorder = if traced then Some (Span.create ()) else None in
             let o, checker =
               Workload.run cfg expected ~workload ~seed:42 ~seconds:60.0
                 ~recorder
             in
             if o.Report.failed > 0 then
               fail "%s: %d of %d failed" label o.failed o.attempted;
             if Db.digest checker.Db.seen <> digest then
               fail "%s: answers differ from the reference" label;
             let text =
               Json.to_string
                 (Report.to_json ~header:(Workload.header cfg ~seed:42) o)
             in
             (match Json.parse_opt text with
              | Some j when Json.to_string j = text -> ()
              | Some _ | None -> fail "%s: report does not round-trip" label);
             (match Json.parse_opt (Report.summary_line o) with
              | Some _ -> ()
              | None -> fail "%s: summary line is not JSON" label);
             List.iter
               (fun (s : Report.spec) ->
                 let reported (n, _, u) = n = s.name && u = s.unit in
                 if not (List.exists reported o.metrics) then
                   fail "%s: no %s in %s" label s.name s.unit)
               (if traced then Report.per_layer else Report.end_to_end);
             let value name =
               List.find_map
                 (fun (n, v, _) -> if n = name then Some v else None)
                 o.metrics
             in
             (* the unrolled loop is only checked if it takes steps *)
             if traced && workload = "job-reopt32" then begin
               match value "core.reopt.steps_per_query" with
               | Some s when s > 0.0 -> ()
               | Some _ | None -> fail "%s: no re-optimization step" label
             end;
             if traced then
               match value "trace.coverage" with
               | Some c when c >= 0.95 -> ()
               | Some c -> fail "%s: trace.coverage %.3f < 0.95" label c
               | None -> fail "%s: no trace.coverage" label)
           [ false; true ])
       Workload.names);
  match List.rev !failures with
  | [] ->
    print_endline "smoke: ok";
    0
  | fs ->
    List.iter (fun f -> prerr_endline ("smoke: FAIL " ^ f)) fs;
    1
