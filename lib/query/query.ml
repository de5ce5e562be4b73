module Relset = Rdb_util.Relset

type rel = { alias : string; table : string }

type colref = { rel : int; col : int }

type pred = { target : colref; p : Predicate.t }

type edge = { l : colref; r : colref }

type agg =
  | Count_star
  | Count_col of colref
  | Min_col of colref
  | Max_col of colref
  | Sum_col of colref

type t = {
  name : string;
  rels : rel array;
  preds : pred list;
  edges : edge list;
  select : agg list;
}

let n_rels t = Array.length t.rels

let preds_of_cols t rel =
  List.filter_map
    (fun { target; p } -> if target.rel = rel then Some (target.col, p) else None)
    t.preds

let pred_counts t =
  let counts = Array.make (n_rels t) 0 in
  List.iter
    (fun { target; _ } -> counts.(target.rel) <- counts.(target.rel) + 1)
    t.preds;
  counts

let edges_between t s1 s2 =
  List.filter_map
    (fun e ->
      if Relset.mem e.l.rel s1 && Relset.mem e.r.rel s2 then Some e
      else if Relset.mem e.r.rel s1 && Relset.mem e.l.rel s2 then
        Some { l = e.r; r = e.l }
      else None)
    t.edges

let edges_within t s =
  List.filter (fun e -> Relset.mem e.l.rel s && Relset.mem e.r.rel s) t.edges

let rel_alias t i = t.rels.(i).alias
let aliases t s = List.map (rel_alias t) (Relset.to_list s)

let all_rels t = Relset.full (n_rels t)

let validate catalog t =
  let check_colref what { rel; col } =
    if rel < 0 || rel >= n_rels t then
      Error (Printf.sprintf "%s: relation index %d out of range" what rel)
    else
      match Catalog.table catalog t.rels.(rel).table with
      | None -> Error (Printf.sprintf "%s: unknown table %s" what t.rels.(rel).table)
      | Some tbl ->
        if col < 0 || col >= Schema.arity (Table.schema tbl) then
          Error
            (Printf.sprintf "%s: column %d out of range for %s" what col
               t.rels.(rel).table)
        else Ok tbl
  in
  let ( let* ) = Result.bind in
  let rec check_preds = function
    | [] -> Ok ()
    | { target; p = _ } :: rest ->
      let* _ = check_colref "predicate" target in
      check_preds rest
  in
  let rec check_edges = function
    | [] -> Ok ()
    | { l; r } :: rest ->
      let* tl = check_colref "join edge" l in
      let* tr = check_colref "join edge" r in
      let ty cr tbl = (Schema.column (Table.schema tbl) cr.col).Schema.ty in
      if ty l tl <> Value.Ty_int || ty r tr <> Value.Ty_int then
        Error "join edge: join columns must be integer-typed"
      else if l.rel = r.rel then
        (* No join applies such an edge, so it would be dropped silently. *)
        Error
          (Printf.sprintf "join edge: both sides are in relation %s"
             t.rels.(l.rel).alias)
      else check_edges rest
  in
  let rec check_aggs = function
    | [] -> Ok ()
    | Count_star :: rest -> check_aggs rest
    | (Count_col cr | Min_col cr | Max_col cr) :: rest ->
      let* _ = check_colref "aggregate" cr in
      check_aggs rest
    | Sum_col cr :: rest ->
      let* tbl = check_colref "aggregate" cr in
      if (Schema.column (Table.schema tbl) cr.col).Schema.ty <> Value.Ty_int
      then Error "SUM requires an integer column"
      else check_aggs rest
  in
  let duplicate_alias =
    let seen = Hashtbl.create 8 in
    Array.fold_left
      (fun acc r ->
        match acc with
        | Some _ -> acc
        | None ->
          if Hashtbl.mem seen r.alias then Some r.alias
          else begin Hashtbl.add seen r.alias (); None end)
      None t.rels
  in
  match duplicate_alias with
  | Some a -> Error ("duplicate alias " ^ a)
  | None ->
    let* () = check_preds t.preds in
    let* () = check_edges t.edges in
    check_aggs t.select
