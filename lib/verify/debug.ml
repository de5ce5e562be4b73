module Finding = Rdb_analysis.Finding

exception Verify_failed of Finding.t list

let () =
  Printexc.register_printer (function
    | Verify_failed fs ->
      Some (Printf.sprintf "Verify_failed:\n%s" (Finding.render fs))
    | _ -> None)

let fail_on_errors findings =
  match Finding.errors findings with
  | [] -> ()
  | errs -> raise (Verify_failed errs)

let check_plan_exn ~catalog ~stats q plan =
  let ctx = Card_bound.create ~catalog ~stats q in
  fail_on_errors (Card_bound.check_plan ctx plan)

let check_step_exn ~catalog ~original ~set ~temp_cols ~temp_name q' =
  fail_on_errors
    (Equiv.check_step ~catalog ~original ~set ~temp_cols ~temp_name q')

let install () =
  Rdb_plan.Optimizer.verify_hook :=
    Some
      (fun ~catalog ~estimator q plan ->
        check_plan_exn ~catalog
          ~stats:(Rdb_card.Estimator.db_stats estimator)
          q plan)
