module Finding = Rdb_analysis.Finding
module Json = Rdb_obs.Json

type item = Walk.item = { file : string; line : int; finding : Finding.t }

type analyzer = Racecheck | Exnflow

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

(* Parse and annotation problems fail both analyzers: they share the
   directive grammar, so a bad @cleanup_ok must fail racecheck too. *)
let hygiene sink (f : Model.file) =
  Option.iter
    (Walk.emit sink f.path 1 `E "src-parse-error" "could not parse: %s")
    f.parse_error;
  List.iter
    (fun (i : Model.issue) ->
      match i.isev with
      | `Error ->
        Walk.emit sink f.path i.iline `E "src-bad-annotation" "%s" i.itext
      | `Warning ->
        Walk.emit sink f.path i.iline `W "src-dangling-annotation" "%s" i.itext)
    f.issues

let analyze ?(registry = Registry.default) analyzer paths =
  let models = List.map Model.load (List.sort compare paths) in
  let sink = ref [] in
  List.iter (hygiene sink) models;
  let inventory =
    match analyzer with
    | Racecheck ->
      Registry.check_states registry sink models;
      let r = Lockcheck.check sink models in
      let states =
        List.fold_left
          (fun acc (f : Model.file) -> acc + Hashtbl.length f.states)
          0 models
      in
      let edges =
        List.map (fun (e : Lockcheck.edge) -> (e.efrom, e.eto)) r.edges
        |> List.sort_uniq compare
      in
      Locks { locks = r.locks; states; edges }
    | Exnflow ->
      Registry.check_files registry sink models;
      let r = Exnflow.check registry.handlers sink models in
      Flows { resources = r.resources; summaries = r.summaries }
  in
  { files =
      List.sort compare (List.map (fun (f : Model.file) -> f.path) models);
    inventory;
    items = sort_items !sink }

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

let analyze_tree ?registry analyzer ~root () =
  analyze ?registry analyzer (ml_files_under root)

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

let tool r = match r.inventory with Locks _ -> "racecheck" | Flows _ -> "exnflow"

let errors r =
  List.filter (fun i -> i.finding.Finding.severity = Finding.Error) r.items

let exit_code r = if errors r <> [] then 1 else 0

let findings r =
  List.map (fun i -> (Printf.sprintf "%s:%d" i.file i.line, i.finding)) r.items

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
  Buffer.add_string b (Finding.summarize (findings r)).Finding.lines;
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
