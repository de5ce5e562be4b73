(* The four workloads behind one entry point, and the settings a run
   takes. *)

let names = [ "job-default"; "job-reopt32"; "serve-hot"; "serve-churn" ]

(* What a run varies with: the fixed settings of a benchmark run, or the
   small ones of [smoke]. *)
type cfg = {
  scale : float;
  n : int;  (** the first [n] JOB queries *)
  job_setups : int;  (** set-up repetitions; a JOB set-up takes ~0.2 s *)
  serve_setups : int;  (** a service set-up with its warm-up, ~2.5 s *)
  max_passes : int;
  max_requests : int;
}

let full =
  {
    scale = 0.2;
    n = 113;
    job_setups = 7;
    serve_setups = 3;
    max_passes = max_int;
    max_requests = max_int;
  }

let small =
  {
    scale = 0.02;
    n = 12;
    job_setups = 1;
    serve_setups = 1;
    max_passes = 1;
    max_requests = 60;
  }

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kb :: _ ->
          Option.map
            (fun kb -> float_of_int kb /. 1024.0)
            (int_of_string_opt kb)
        | [] -> None)
      | _ -> None)
  |> Option.value ~default:nan

(* One run of one workload in this process. *)
let run cfg expected ~workload ~seed ~seconds ~recorder =
  let checker = Db.checker expected in
  let job mode =
    let measure db =
      Job.measure ~seconds ~max_passes:cfg.max_passes ~seed ?recorder db
        checker mode
    in
    let build () = Db.build ~scale:cfg.scale ~n:cfg.n () in
    match recorder with
    | Some _ -> (measure (build ()), None)
    | None ->
      let db, setup_s =
        Db.timed_setups ~reps:cfg.job_setups ~release:ignore build
      in
      (measure db, Some setup_s)
  in
  let serve kind =
    match recorder with
    | Some recorder ->
      ( Serve.replay kind ~seconds ~max_requests:cfg.max_requests ~seed
          ~scale:cfg.scale ~n:cfg.n ~recorder checker,
        None )
    | None ->
      let s, setup_s =
        Db.timed_setups ~reps:cfg.serve_setups ~release:Serve.release (fun () ->
            Serve.setup_service kind ~scale:cfg.scale ~n:cfg.n expected)
      in
      ( Fun.protect
          ~finally:(fun () -> Serve.release s)
          (fun () ->
            Serve.measure_service kind ~seconds
              ~max_requests:cfg.max_requests ~seed s checker),
        Some setup_s )
  in
  let outcome, setup_s =
    match workload with
    | "job-default" -> job Job.Default
    | "job-reopt32" -> job Job.Reopt32
    | "serve-hot" -> serve Serve.Hot
    | "serve-churn" -> serve Serve.Churn
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  match setup_s with
  | None -> (outcome, checker)
  | Some s ->
    ( {
        outcome with
        Report.metrics =
          (("setup_s", s, "s") :: outcome.Report.metrics)
          @ [ ("peak_rss_mb", peak_rss_mb (), "MB") ];
      },
      checker )

let header cfg ~seed =
  Report.header ~scale:cfg.scale ~seed ~jobs:Serve.jobs
    ~clients:(Serve.clients ())

