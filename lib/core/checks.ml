module Finding = Rdb_analysis.Finding
module Card_bound = Rdb_verify.Card_bound

type check = Lint | Verify | Sensitivity | Resource

exception Check_failed of check * Finding.t list

let all = [ Lint; Verify; Sensitivity; Resource ]

let name = function
  | Lint -> "lint"
  | Verify -> "verify"
  | Sensitivity -> "sensitivity"
  | Resource -> "resource"

let () =
  Printexc.register_printer (function
    | Check_failed (c, fs) ->
      Some (Printf.sprintf "Check_failed(%s):\n%s" (name c) (Finding.render fs))
    | _ -> None)

let of_string s =
  let parse tok =
    match List.find_opt (fun c -> name c = tok) all with
    | Some c -> c
    | None ->
      invalid_arg
        (Printf.sprintf "unknown check %S (expected %s)" tok
           (String.concat ", " (List.map name all)))
  in
  let picked =
    List.filter_map
      (fun tok ->
        match String.trim tok with "" -> None | tok -> Some (parse tok))
      (String.split_on_char ',' s)
  in
  List.filter (fun c -> List.mem c picked) all

let env () =
  match Sys.getenv_opt "RDB_CHECKS" with
  | None -> []
  | Some s ->
    (try of_string s
     with Invalid_argument msg -> invalid_arg ("RDB_CHECKS: " ^ msg))

let fail check findings =
  match Finding.errors findings with
  | [] -> ()
  | errs -> raise (Check_failed (check, errs))

let findings ~catalog ~estimator q plan = function
  | Lint ->
    Rdb_analysis.Query_lint.check ~catalog q
    @ Rdb_analysis.Plan_lint.check ~catalog ~estimator q plan
  | Verify ->
    Card_bound.check_plan
      (Card_bound.create ~catalog
         ~stats:(Rdb_card.Estimator.db_stats estimator)
         q)
      plan
  | Sensitivity ->
    Rdb_analysis.Sensitivity.check ~threshold:32.0 ~corner_replans:false
      ~catalog ~estimator q plan
  | Resource ->
    Rdb_analysis.Resource.check ~catalog ~estimator q plan

let plan checks ~catalog ~estimator q plan =
  List.iter
    (fun c ->
      if List.mem c checks then fail c (findings ~catalog ~estimator q plan c))
    all

let step checks ~catalog ~original ~set ~temp_cols ~temp_name q' =
  if List.mem Lint checks then
    fail Lint (Rdb_analysis.Query_lint.check ~catalog q');
  if List.mem Verify checks then
    fail Verify
      (Rdb_verify.Equiv.check_step ~catalog ~original ~set ~temp_cols
         ~temp_name q')
