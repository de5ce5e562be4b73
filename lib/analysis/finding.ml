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
