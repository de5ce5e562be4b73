exception Lint_failed of Finding.t list

let () =
  Printexc.register_printer (function
    | Lint_failed fs ->
      Some
        (Printf.sprintf "Lint_failed:\n%s" (Finding.render fs))
    | _ -> None)

let fail_on_errors findings =
  match Finding.errors findings with
  | [] -> ()
  | errs -> raise (Lint_failed errs)

let check_query_exn ~catalog q = fail_on_errors (Query_lint.check ~catalog q)

let check_plan_exn ~catalog ?estimator q plan =
  fail_on_errors
    (Query_lint.check ~catalog q @ Plan_lint.check ~catalog ?estimator q plan)

(* RDB_SENSITIVITY doubles as the enable switch and the Q-error envelope
   factor: "1"/"true" mean "on, default envelope"; any numeric value >= 1
   is the envelope factor itself (RDB_SENSITIVITY=8 analyzes a tighter
   error model than the default 32). *)
let sensitivity_threshold () =
  match Sys.getenv_opt "RDB_SENSITIVITY" with
  | _ when not (Rdb_plan.Optimizer.env_switch "RDB_SENSITIVITY") -> None
  | None | Some ("1" | "true") -> Some 32.0
  | Some s ->
    (match float_of_string_opt s with
    | Some t when t >= 1.0 -> Some t
    | Some _ | None -> Some 32.0)

let install () =
  Rdb_plan.Optimizer.lint_hook :=
    Some
      (fun ~catalog ~estimator q plan ->
        check_plan_exn ~catalog ~estimator q plan);
  Rdb_plan.Optimizer.sensitivity_hook :=
    Some
      (fun ~catalog ~estimator q plan ->
        let threshold =
          match sensitivity_threshold () with Some t -> t | None -> 32.0
        in
        (* Inline hook: interval propagation and the cost-consistency
           recomputation only. Corner replans re-enter the optimizer and
           cost two DP runs per join — the lint/fragility sweeps opt into
           those explicitly. *)
        fail_on_errors
          (Sensitivity.check ~threshold ~corner_replans:false ~catalog
             ~estimator q plan));
  Rdb_plan.Optimizer.resource_hook :=
    Some
      (fun ~catalog ~estimator q plan ->
        (* Inline hook: certificate well-formedness only — the transition
           simulation re-enters the optimizer, so the resources/lint
           sweeps opt into it explicitly, and budgets live in the server's
           admission controller. *)
        fail_on_errors
          (Resource.check ~transitions:false ~catalog ~estimator q plan))
