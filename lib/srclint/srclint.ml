module Finding = Rdb_analysis.Finding
module Json = Rdb_obs.Json

type item = { file : string; line : int; finding : Finding.t }

type inventory =
  | Locks of { locks : string list; states : int; edges : (string * string) list }
  | Flows of { resources : int; summaries : (string * Exnflow.sinfo) list }

type report = { files : string list; inventory : inventory; items : item list }

let sort_items items =
  List.sort
    (fun a b ->
      compare
        (Finding.rank a.finding, a.file, a.line,
         a.finding.Finding.code, a.finding.Finding.message)
        (Finding.rank b.finding, b.file, b.line,
         b.finding.Finding.code, b.finding.Finding.message))
    items

let load paths = List.map Model.load (List.sort compare paths)

let sorted_paths (models : Model.file list) =
  List.sort compare (List.map (fun (f : Model.file) -> f.path) models)

let analyze_models ?(registry = Registry.default) (models : Model.file list) =
  let r = Lockcheck.check models in
  let reg = Registry.check registry models in
  let items =
    List.map
      (fun (l : Lockcheck.located) ->
        { file = l.lfile; line = l.lline; finding = l.lfinding })
      (reg @ r.items)
    |> sort_items
  in
  let locks =
    List.concat_map
      (fun (f : Model.file) ->
        Hashtbl.fold
          (fun short _ acc -> Model.qualify f.base short :: acc)
          f.locks [])
      models
    |> List.sort_uniq compare
  in
  let states =
    List.fold_left
      (fun acc (f : Model.file) -> acc + Hashtbl.length f.states)
      0 models
  in
  let edges =
    List.map (fun (e : Lockcheck.edge) -> (e.efrom, e.eto)) r.edges
    |> List.sort_uniq compare
  in
  { files = sorted_paths models; inventory = Locks { locks; states; edges }; items }

let analyze_files ?registry paths = analyze_models ?registry (load paths)

let ml_files_under root =
  let out = ref [] in
  let rec go dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | entries ->
      Array.sort compare entries;
      Array.iter
        (fun name ->
          if name <> "_build" && name <> ".git" then begin
            let p = Filename.concat dir name in
            if Sys.is_directory p then go p
            else if Filename.check_suffix name ".ml" then out := p :: !out
          end)
        entries
  in
  if Sys.file_exists root && Sys.is_directory root then go root;
  List.rev !out

let analyze_tree ?registry ~root () =
  analyze_files ?registry (ml_files_under root)

let find_default_root () =
  let rec up dir n =
    if n > 8 then None
    else if Sys.file_exists (Filename.concat dir "lib/util/pool.ml") then
      Some (Filename.concat dir "lib")
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent (n + 1)
  in
  up (Sys.getcwd ()) 0

let analyze_exnflow_models ?handlers ?pinned (models : Model.file list) =
  let r = Exnflow.check ?handlers ?pinned models in
  (* parse / annotation problems surface here too: exnflow shares the
     directive grammar with racecheck, so a bad @cleanup_ok must fail both *)
  let hygiene =
    List.concat_map
      (fun (f : Model.file) ->
        let parse =
          match f.parse_error with
          | Some msg ->
            [ { file = f.path; line = 1;
                finding =
                  Finding.error ~code:"src-parse-error"
                    (Printf.sprintf "could not parse: %s" msg) } ]
          | None -> []
        in
        parse
        @ List.map
            (fun (i : Model.issue) ->
              let mk =
                match i.isev with
                | `Error -> Finding.error ~code:"src-bad-annotation"
                | `Warning -> Finding.warning ~code:"src-dangling-annotation"
              in
              { file = f.path; line = i.iline; finding = mk i.itext })
            f.issues)
      models
  in
  let items =
    hygiene
    @ List.map
        (fun (l : Exnflow.located) ->
          { file = l.lfile; line = l.lline; finding = l.lfinding })
        r.items
    |> sort_items
  in
  { files = sorted_paths models;
    inventory = Flows { resources = r.resources; summaries = r.summaries };
    items }

let analyze_exnflow_files ?handlers ?pinned paths =
  analyze_exnflow_models ?handlers ?pinned (load paths)

let analyze_exnflow_tree ?handlers ?pinned ~root () =
  analyze_exnflow_files ?handlers ?pinned (ml_files_under root)

let tool r = match r.inventory with Locks _ -> "racecheck" | Flows _ -> "exnflow"

let errors r =
  List.filter (fun i -> i.finding.Finding.severity = Finding.Error) r.items

let exit_code r = if errors r <> [] then 1 else 0

let render r =
  let b = Buffer.create 1024 in
  let nfiles = List.length r.files in
  Buffer.add_string b
    (match r.inventory with
     | Locks { locks; states; edges } ->
       Printf.sprintf
         "racecheck: %d files, %d locks, %d states, %d lock-order edges\n"
         nfiles (List.length locks) states (List.length edges)
     | Flows { resources; summaries } ->
       Printf.sprintf
         "exnflow: %d files, %d functions summarized, %d tracked acquisitions\n"
         nfiles (List.length summaries) resources);
  List.iter
    (fun i ->
      Buffer.add_string b
        (Printf.sprintf "%s:%d: %s\n" i.file i.line
           (Finding.to_string i.finding)))
    r.items;
  Buffer.add_string b
    (Printf.sprintf "%s: %d findings (%d errors)\n" (tool r)
       (List.length r.items) (List.length (errors r)));
  Buffer.contents b

let to_json r =
  let inventory =
    match r.inventory with
    | Locks { locks; states; edges } ->
      [ ("locks", Json.List (List.map (fun l -> Json.Str l) locks));
        ("states", Json.Int states);
        ( "edges",
          Json.List
            (List.map
               (fun (a, b) ->
                 Json.Obj [ ("from", Json.Str a); ("to", Json.Str b) ])
               edges) ) ]
    | Flows { resources; summaries } ->
      [ ("functions", Json.Int (List.length summaries));
        ("resources", Json.Int resources) ]
  in
  Json.Obj
    ((("files", Json.Int (List.length r.files)) :: inventory)
     @ [ ( "findings",
           Json.List
             (List.map
                (fun i ->
                  Json.Obj
                    [ ("file", Json.Str i.file);
                      ("line", Json.Int i.line);
                      ( "severity",
                        Json.Str
                          (Finding.severity_name i.finding.Finding.severity) );
                      ("code", Json.Str i.finding.Finding.code);
                      ("message", Json.Str i.finding.Finding.message) ])
                r.items) );
         ("errors", Json.Int (List.length (errors r))) ])
