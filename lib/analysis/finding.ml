type severity =
  | Info
  | Warning
  | Error

type t = { severity : severity; code : string; message : string }

let make severity code message = { severity; code; message }
let info ~code message = make Info code message
let warning ~code message = make Warning code message
let error ~code message = make Error code message

let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let rank f = match f.severity with Error -> 0 | Warning -> 1 | Info -> 2

let errors fs = List.filter (fun f -> f.severity = Error) fs
let has_errors fs = List.exists (fun f -> f.severity = Error) fs
let by_code code fs = List.filter (fun f -> f.code = code) fs

let to_string f =
  Printf.sprintf "%s[%s]: %s" (severity_name f.severity) f.code f.message

let render fs = String.concat "\n" (List.map to_string fs)

let pp ppf f = Format.pp_print_string ppf (to_string f)

let add acc ctx fs = List.iter (fun f -> acc := (ctx, f) :: !acc) fs

type summary = { lines : string; errors : int; warnings : int }

let summarize ?key ?(shown = fun _ -> true) fs =
  let fs =
    match key with
    | None -> fs
    | Some key ->
      let seen = Hashtbl.create 256 in
      List.filter
        (fun (ctx, f) ->
          let k = (key ctx, to_string f) in
          if Hashtbl.mem seen k then false else (Hashtbl.add seen k (); true))
        fs
      |> List.stable_sort (fun (c1, f1) (c2, f2) ->
             compare (rank f1, c1, to_string f1) (rank f2, c2, to_string f2))
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (ctx, f) ->
      if shown f then Printf.bprintf buf "%s: %s\n" ctx (to_string f))
    fs;
  let count sev = List.length (List.filter (fun (_, f) -> f.severity = sev) fs) in
  { lines = Buffer.contents buf; errors = count Error; warnings = count Warning }

let exit_code s = if s.errors > 0 then 1 else 0
