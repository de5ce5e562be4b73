(* Multi-file golden fixture, connection side: release shapes exnflow
   recognizes (a ~finally through a local helper, through @releases) and a
   resource acquired by a match scrutinee. *)

(* @releases fd *)
let hand_back fd = ignore fd

let stat_annotated path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> hand_back fd) (fun () -> Unix.fstat fd)

let first_line path =
  let ic = open_in path in
  let close_it () = close_in ic in
  Fun.protect ~finally:close_it (fun () -> input_line ic)

(* intentional: Unix.read can raise with the accepted fd still open *)
let serve_one sock buf =
  match Unix.accept sock with
  | fd, _ ->
    let n = Unix.read fd buf 0 (Bytes.length buf) in
    Unix.close fd;
    n
  | exception Unix.Unix_error _ -> 0

let serve_safe sock buf =
  match Unix.accept sock with
  | fd, _ ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> Unix.read fd buf 0 (Bytes.length buf))
  | exception Unix.Unix_error _ -> 0
