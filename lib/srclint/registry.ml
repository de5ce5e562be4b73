type entry = { suffix : string; required : string list }

type handler = { hsuffix : string; hexns : string list }

type t = { states : entry list; handlers : handler list; pinned : string list }

let default =
  { states =
      [ { suffix = "util/pool.ml";
          required = [ "deques"; "rr"; "stop"; "domains"; "state" ] };
        { suffix = "server/plan_cache.ml";
          required = [ "tbl"; "tick"; "plan"; "epoch"; "last_use"; "hits" ] };
        { suffix = "server/service.ml";
          required = [ "generation"; "closed"; "clone_slot" ] };
        { suffix = "server/frontend.ml"; required = [ "fds" ] };
        { suffix = "obs/metrics.ml"; required = [ "shards"; "c"; "s" ] };
        { suffix = "obs/trace.ml"; required = [ "sink"; "depth_key" ] };
        { suffix = "harness/runner.ml"; required = [ "prepared"; "cache" ] } ];
    (* The only places allowed to consume a control exception: the harness
       catches budget/deadline aborts to record a capped cell, and the
       analysis sweeps also catch a failed inline check to report its
       findings. The serving stack converts aborts into responses via
       result types, not handlers. *)
    handlers =
      [ { hsuffix = "harness/runner.ml"; hexns = [ "Work_budget_exceeded" ] };
        { hsuffix = "harness/experiments.ml";
          hexns = [ "Work_budget_exceeded" ] };
        { hsuffix = "harness/sweep.ml";
          hexns = [ "Work_budget_exceeded"; "Check_failed" ] } ];
    (* Serving-stack files that must be present (and hence analyzed to zero
       errors) for the exnflow gate to mean anything. *)
    pinned =
      [ "util/pool.ml"; "server/service.ml"; "server/frontend.ml";
        "server/plan_cache.ml"; "core/feedback.ml"; "obs/trace.ml";
        "obs/metrics.ml"; "exec/executor.ml"; "core/reopt.ml" ] }

let none = { states = []; handlers = []; pinned = [] }

let norm p = String.map (fun c -> if c = '\\' then '/' else c) p

let matches suffix path = String.ends_with ~suffix (norm path)

let find files suffix =
  List.find_opt (fun (f : Model.file) -> matches suffix f.path) files

let missing sink files what suffix =
  if find files suffix = None then
    Walk.emit sink suffix 0 `E "src-registry-missing-file"
      "%s %s not found in analyzed tree" what suffix

let check_states reg sink (files : Model.file list) =
  List.iter
    (fun e ->
      missing sink files "registered file" e.suffix;
      match find files e.suffix with
      | None -> ()
      | Some f ->
        List.iter
          (fun name ->
            if not (Hashtbl.mem f.states name) then
              Walk.emit sink f.path 0 `E "src-registry-missing-state"
                "registered state %s not declared in %s (renamed or \
                 removed? update the registry)"
                name e.suffix)
          e.required;
        (* the safety net: no shared state in a registered file may be
           left undeclared *)
        Hashtbl.iter
          (fun _ (st : Model.state) ->
            if st.sguard = Model.Unannotated then
              Walk.emit sink f.path st.sline `E "src-unannotated-state"
                "state %s in registered file %s lacks @guarded_by/@confined"
                st.sname e.suffix)
          f.states)
    reg.states

let check_files reg sink files =
  List.iter (missing sink files "pinned serving-stack file") reg.pinned;
  List.iter
    (fun h -> missing sink files "designated-handler file" h.hsuffix)
    reg.handlers
