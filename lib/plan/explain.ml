module Relset = Rdb_util.Relset
module Query = Rdb_query.Query
module Predicate = Rdb_query.Predicate

let colref_name (q : Query.t) (cr : Query.colref) =
  Printf.sprintf "%s.c%d" (Query.rel_alias q cr.Query.rel) cr.Query.col

let render ?actuals ?notes (q : Query.t) plan =
  let buf = Buffer.create 256 in
  let actual_str set =
    match actuals with
    | None -> ""
    | Some f ->
      (match f set with
       | Some rows -> Printf.sprintf " (actual rows=%d)" rows
       | None -> "")
  in
  let notes_str set =
    match notes with
    | None -> ""
    | Some f ->
      String.concat "" (List.map (fun note -> " " ^ note) (f set))
  in
  let rec go indent node =
    let pad = String.make (indent * 2) ' ' in
    match node with
    | Plan.Scan s ->
      let rel = q.Query.rels.(s.Plan.scan_rel) in
      let access =
        match s.Plan.access with
        | Plan.Seq_scan -> "Seq Scan"
        | Plan.Index_scan { col; key } ->
          Printf.sprintf "Index Scan (c%d = %d)" col key
      in
      let preds = Query.preds_of_cols q s.Plan.scan_rel in
      let preds_str =
        if preds = [] then ""
        else
          " filter: "
          ^ String.concat " AND "
              (List.map
                 (fun (col, p) ->
                   Predicate.to_sql ~col:(Printf.sprintf "c%d" col) p)
                 preds)
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%s on %s %s  (est rows=%.0f cost=%.1f)%s%s%s\n" pad
           access rel.Query.table rel.Query.alias s.Plan.scan_est
           s.Plan.scan_cost
           (actual_str (Relset.singleton s.Plan.scan_rel))
           preds_str
           (notes_str (Relset.singleton s.Plan.scan_rel)))
    | Plan.Join j ->
      let set = Relset.union (Plan.rel_set j.Plan.outer) (Plan.rel_set j.Plan.inner) in
      let conds =
        String.concat " AND "
          (List.map
             (fun { Query.l; r } ->
               Printf.sprintf "%s = %s" (colref_name q l) (colref_name q r))
             j.Plan.join_edges)
      in
      Buffer.add_string buf
        (Printf.sprintf "%s%s on %s  (est rows=%.0f cost=%.1f)%s%s\n" pad
           (Plan.algo_name j.Plan.algo)
           conds j.Plan.join_est j.Plan.join_cost (actual_str set)
           (notes_str set));
      go (indent + 1) j.Plan.outer;
      go (indent + 1) j.Plan.inner
  in
  go 0 plan;
  Buffer.contents buf
