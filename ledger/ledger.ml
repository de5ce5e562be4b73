(* The performance ledger: a SQL-to-answer benchmark over four workloads,
   every answer checked, every duration from one monotonic clock.

   Usage (from the repository root):
     ledger.exe --workload W --seed N --seconds S --trace 0|1
                [--json PATH] [--spans PATH]     one run of one workload
     ledger.exe all [--seed N] [--seconds S] [--out DIR]
                                               every workload, untraced and
                                               traced, one process each
     ledger.exe diff A.json B.json             compare two reports
     ledger.exe answers [--out PATH]           regenerate the answer key
     ledger.exe smoke                          a seconds-long self-check

   Workloads: job-default, job-reopt32, serve-hot, serve-churn (see
   ledger/README.md). A run prints every metric as [name value unit], and
   as its last line one JSON object: the end-to-end metrics untraced, the
   per-layer metrics traced. Exit 0 when every answer was right, 1 when
   not, 2 on a usage error. *)

let answers_path = "ledger/answers.json"

let full = Workload.full

let load_expected () =
  match Db.load_answers ~scale:full.scale answers_path with
  | Ok a -> a
  | Error msg ->
    Printf.eprintf "ledger: %s (regenerate with: ledger.exe answers)\n" msg;
    exit 1

(* ---- argument parsing ---- *)

let usage () =
  prerr_string
    "usage: ledger.exe --workload W --seed N --seconds S --trace 0|1\n\
    \                  [--json PATH] [--spans PATH]\n\
    \       ledger.exe all [--seed N] [--seconds S] [--out DIR]\n\
    \       ledger.exe diff A.json B.json\n\
    \       ledger.exe answers [--out PATH]\n\
    \       ledger.exe smoke\n\
     workloads: job-default job-reopt32 serve-hot serve-churn\n";
  exit 2

let bad fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ledger: " ^ msg);
      usage ())
    fmt

(* [--flag value] pairs into an association list, every flag in [known]. *)
let rec flags known = function
  | [] -> []
  | f :: v :: rest when List.mem f known -> (f, v) :: flags known rest
  | f :: _ -> bad "unexpected argument %s" f

let seed_flag fs =
  match List.assoc_opt "--seed" fs with
  | None -> 42
  | Some v -> (
    match int_of_string_opt v with
    | Some i when i >= 0 -> i
    | _ -> bad "--seed: not a non-negative integer: %s" v)

let seconds_flag fs =
  match List.assoc_opt "--seconds" fs with
  | None -> 24.0
  | Some v -> (
    match float_of_string_opt v with
    | Some s when s > 0.0 && Float.is_finite s -> s
    | _ -> bad "--seconds: not a positive number: %s" v)

(* ---- commands ---- *)

let cmd_run fs =
  let workload =
    match List.assoc_opt "--workload" fs with
    | Some w when List.mem w Workload.names -> w
    | Some w -> bad "unknown workload %s" w
    | None -> bad "--workload is required"
  in
  let traced =
    match List.assoc_opt "--trace" fs with
    | Some "1" -> true
    | Some "0" | None -> false
    | Some v -> bad "--trace: 0 or 1, not %s" v
  in
  let seed = seed_flag fs and seconds = seconds_flag fs in
  let expected = load_expected () in
  let recorder = if traced then Some (Span.create ()) else None in
  let outcome, _ =
    Workload.run full expected ~workload ~seed ~seconds ~recorder
  in
  Option.iter
    (fun path ->
      Report.write path
        (Report.to_json ~header:(Workload.header full ~seed) outcome))
    (List.assoc_opt "--json" fs);
  (match (recorder, List.assoc_opt "--spans" fs) with
   | Some r, Some path -> Span.write_jsonl r path
   | _ -> ());
  Report.print_metrics outcome;
  print_endline (Report.summary_line outcome);
  if outcome.Report.failed = 0 then 0 else 1

(* Each workload in its own process, untraced then traced; one report. *)
let cmd_all fs =
  let seed = seed_flag fs and seconds = seconds_flag fs in
  let dir = Option.value ~default:"_ledger" (List.assoc_opt "--out" fs) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let run workload traced =
    let base =
      Filename.concat dir (workload ^ if traced then ".traced" else "")
    in
    let args =
      [ "--workload"; workload; "--seed"; string_of_int seed;
        "--seconds"; Printf.sprintf "%g" seconds;
        "--trace"; (if traced then "1" else "0"); "--json"; base ^ ".json" ]
      @ if traced then [ "--spans"; base ^ ".spans.jsonl" ] else []
    in
    Printf.printf "# %s%s\n%!" workload (if traced then " (traced)" else "");
    let pid =
      Unix.create_process Sys.executable_name
        (Array.of_list (Sys.executable_name :: args))
        Unix.stdin Unix.stdout Unix.stderr
    in
    let exited_ok = snd (Unix.waitpid [] pid) = Unix.WEXITED 0 in
    (exited_ok, Report.read (base ^ ".json"))
  in
  let runs =
    List.concat_map
      (fun w ->
        let untraced = run w false in
        [ untraced; run w true ])
      Workload.names
  in
  let path = Filename.concat dir "report.json" in
  Report.write path
    (Rdb_obs.Json.Obj
       [
         ("header", Workload.header full ~seed);
         ( "runs",
           Rdb_obs.Json.List
             (List.filter_map (fun (_, r) -> Result.to_option r) runs) );
       ]);
  Printf.printf "report written to %s\n" path;
  if List.for_all (fun (ok, r) -> ok && Result.is_ok r) runs then 0 else 1

let cmd_diff a b =
  match (Report.read a, Report.read b) with
  | Ok ja, Ok jb ->
    let v = Report.diff ja jb in
    Printf.printf "%d violation%s\n" v (if v = 1 then "" else "s");
    if v = 0 then 0 else 1
  | Error msg, _ | _, Error msg ->
    prerr_endline ("ledger: " ^ msg);
    2

let cmd_answers fs =
  let out = Option.value ~default:answers_path (List.assoc_opt "--out" fs) in
  match Db.reference (Db.build ~scale:full.scale ~n:full.n ()) with
  | Ok a ->
    Out_channel.with_open_text out (fun oc ->
        output_string oc (Db.answers_to_string ~scale:full.scale a));
    Printf.printf "%d answers written to %s\n" (Hashtbl.length a) out;
    0
  | Error msg ->
    prerr_endline ("ledger: " ^ msg);
    1

let () =
  let code =
    match List.tl (Array.to_list Sys.argv) with
    | "all" :: rest -> cmd_all (flags [ "--seed"; "--seconds"; "--out" ] rest)
    | [ "diff"; a; b ] -> cmd_diff a b
    | "answers" :: rest -> cmd_answers (flags [ "--out" ] rest)
    | [ "smoke" ] -> Smoke.run ()
    | args ->
      cmd_run
        (flags
           [ "--workload"; "--seed"; "--seconds"; "--trace"; "--json"; "--spans" ]
           args)
  in
  exit code
