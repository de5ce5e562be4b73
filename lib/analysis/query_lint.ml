module Relset = Rdb_util.Relset
module Query = Rdb_query.Query
module Predicate = Rdb_query.Predicate
module Join_graph = Rdb_query.Join_graph

let err = Finding.error
let warn = Finding.warning

(* A predicate only NULL cells satisfy, next to one only non-NULL cells
   satisfy, is a contradiction; so are two point constraints that cannot
   hold together. Conservative: [false] when satisfiability is unclear. *)
let contradicts a b =
  let open Predicate in
  match (a, b) with
  | Cmp (Eq, va), Cmp (Eq, vb) -> not (Value.equal va vb)
  | Cmp (Eq, va), Cmp (Ne, vb) | Cmp (Ne, vb), Cmp (Eq, va) ->
    Value.equal va vb
  | Cmp (Eq, Value.Int x), Between (lo, hi)
  | Between (lo, hi), Cmp (Eq, Value.Int x) ->
    x < lo || x > hi
  | Between (a1, b1), Between (a2, b2) -> max a1 a2 > min b1 b2
  | Cmp (Eq, v), In_list vs | In_list vs, Cmp (Eq, v) ->
    not (List.exists (Value.equal v) vs)
  | Is_null, Is_not_null | Is_not_null, Is_null -> true
  | Is_null, (Cmp _ | Between _ | In_list _ | Like _)
  | (Cmp _ | Between _ | In_list _ | Like _), Is_null ->
    true
  | _ -> false

let check ~catalog (q : Query.t) =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let n = Query.n_rels q in
  if n = 0 then add (err ~code:"empty-query" "query has no relations");
  (* Alias resolution and uniqueness. *)
  let tables =
    Array.map (fun (r : Query.rel) -> Catalog.table catalog r.Query.table)
      q.Query.rels
  in
  Array.iteri
    (fun i t ->
      if t = None then
        add
          (err ~code:"unknown-table"
             (Printf.sprintf "alias %s references unknown table %s"
                (Query.rel_alias q i) q.Query.rels.(i).Query.table)))
    tables;
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (r : Query.rel) ->
      if Hashtbl.mem seen r.Query.alias then
        add (err ~code:"duplicate-alias" ("duplicate alias " ^ r.Query.alias))
      else Hashtbl.add seen r.Query.alias ())
    q.Query.rels;
  (* Column references: in range, with their resolved type. *)
  let col_ty (cr : Query.colref) =
    if cr.Query.rel < 0 || cr.Query.rel >= n then None
    else
      match tables.(cr.Query.rel) with
      | None -> None
      | Some tbl ->
        let schema = Table.schema tbl in
        if cr.Query.col < 0 || cr.Query.col >= Schema.arity schema then None
        else Some (Schema.column schema cr.Query.col).Schema.ty
  in
  let colref_str (cr : Query.colref) =
    if cr.Query.rel >= 0 && cr.Query.rel < n then
      Printf.sprintf "%s.col%d" (Query.rel_alias q cr.Query.rel) cr.Query.col
    else Printf.sprintf "rel%d.col%d" cr.Query.rel cr.Query.col
  in
  let check_colref what (cr : Query.colref) =
    if cr.Query.rel < 0 || cr.Query.rel >= n then begin
      add
        (err ~code:"bad-colref"
           (Printf.sprintf "%s: relation index %d out of range" what
              cr.Query.rel));
      false
    end
    else
      match tables.(cr.Query.rel) with
      | None -> false (* unknown-table already reported *)
      | Some tbl ->
        if
          cr.Query.col < 0
          || cr.Query.col >= Schema.arity (Table.schema tbl)
        then begin
          add
            (err ~code:"bad-colref"
               (Printf.sprintf "%s: column %d out of range for %s (%s)" what
                  cr.Query.col
                  (Query.rel_alias q cr.Query.rel)
                  q.Query.rels.(cr.Query.rel).Query.table));
          false
        end
        else true
  in
  (* Predicates: resolvable target, type-compatible literal. *)
  List.iter
    (fun ({ Query.target; p } : Query.pred) ->
      if check_colref "predicate" target then begin
        let ty = col_ty target in
        let where = colref_str target in
        let mismatch lit_ty =
          match ty with
          | Some t when t <> lit_ty ->
            add
              (err ~code:"predicate-type"
                 (Printf.sprintf
                    "predicate on %s compares a %s column with a %s literal"
                    where (Value.ty_to_string t) (Value.ty_to_string lit_ty)))
          | _ -> ()
        in
        match p with
        | Predicate.Cmp (_, v) ->
          (match Value.ty_of v with
           | None ->
             add
               (warn ~code:"null-comparison"
                  (Printf.sprintf
                     "predicate on %s compares against NULL and never holds"
                     where))
           | Some lt -> mismatch lt)
        | Predicate.Between (lo, hi) ->
          mismatch Value.Ty_int;
          if lo > hi then
            add
              (warn ~code:"empty-range"
                 (Printf.sprintf "BETWEEN %d AND %d on %s is always empty" lo
                    hi where))
        | Predicate.In_list [] ->
          add
            (warn ~code:"empty-in-list"
               (Printf.sprintf "IN () on %s is always empty" where))
        | Predicate.In_list vs ->
          List.iter
            (fun v ->
              match Value.ty_of v with
              | None ->
                add
                  (warn ~code:"null-comparison"
                     (Printf.sprintf "NULL in IN-list on %s never matches"
                        where))
              | Some lt -> mismatch lt)
            vs
        | Predicate.Like _ -> mismatch Value.Ty_str
        | Predicate.Is_null | Predicate.Is_not_null -> ()
      end)
    q.Query.preds;
  (* Duplicate and contradictory predicates, per column. *)
  let dup = Hashtbl.create 16 in
  List.iter
    (fun ({ Query.target; p } : Query.pred) ->
      if Hashtbl.mem dup (target, p) then
        add
          (warn ~code:"duplicate-predicate"
             (Printf.sprintf "predicate on %s appears more than once"
                (colref_str target)))
      else Hashtbl.add dup (target, p) ())
    q.Query.preds;
  let by_col = Hashtbl.create 16 in
  List.iter
    (fun ({ Query.target; p } : Query.pred) ->
      Hashtbl.replace by_col target
        (p :: (Option.value ~default:[] (Hashtbl.find_opt by_col target))))
    q.Query.preds;
  Hashtbl.fold (fun target ps acc -> (target, List.rev ps) :: acc) by_col []
  |> List.sort compare
  |> List.iter (fun ((target : Query.colref), ps) ->
         let rec pairs = function
           | [] -> ()
           | p :: rest ->
             List.iter
               (fun p' ->
                 if contradicts p p' then
                   add
                     (warn ~code:"contradictory-predicates"
                        (Printf.sprintf
                           "predicates on %s contradict each other; the \
                            query is always empty"
                           (colref_str target))))
               rest;
             pairs rest
         in
         pairs ps);
  (* Join edges: resolvable, integer-typed, non-degenerate, no duplicates. *)
  let edge_ok = ref true in
  let edge_seen = Hashtbl.create 16 in
  List.iter
    (fun ({ Query.l; r } : Query.edge) ->
      let ok_l = check_colref "join edge" l
      and ok_r = check_colref "join edge" r in
      if not (ok_l && ok_r) then edge_ok := false
      else begin
        (match (col_ty l, col_ty r) with
         | Some tl, Some tr
           when tl <> Value.Ty_int || tr <> Value.Ty_int ->
           add
             (err ~code:"join-column-type"
                (Printf.sprintf "join edge %s = %s on non-integer column(s)"
                   (colref_str l) (colref_str r)))
         | _ -> ());
        if l = r then
          add
            (warn ~code:"trivial-join-edge"
               (Printf.sprintf "join edge equates %s with itself"
                  (colref_str l)))
        else if l.Query.rel = r.Query.rel then
          add
            (warn ~code:"self-join-edge"
               (Printf.sprintf
                  "join edge %s = %s stays within one relation and does not \
                   connect the join graph"
                  (colref_str l) (colref_str r)));
        let key = if l <= r then (l, r) else (r, l) in
        if Hashtbl.mem edge_seen key then
          add
            (warn ~code:"duplicate-join-edge"
               (Printf.sprintf "join edge %s = %s appears more than once"
                  (colref_str l) (colref_str r)))
        else Hashtbl.add edge_seen key ()
      end)
    q.Query.edges;
  (* Aggregates. *)
  List.iter
    (function
      | Query.Count_star -> ()
      | Query.Count_col cr | Query.Min_col cr | Query.Max_col cr ->
        ignore (check_colref "aggregate" cr)
      | Query.Sum_col cr ->
        if check_colref "aggregate" cr && col_ty cr <> Some Value.Ty_int then
          add
            (err ~code:"sum-type"
               (Printf.sprintf "SUM(%s) requires an integer column"
                  (colref_str cr))))
    q.Query.select;
  (* Connectivity — only when every edge endpoint resolved, else the graph
     itself is ill-defined and already reported. *)
  if n > 0 && !edge_ok then begin
    let graph = Join_graph.make q in
    match Join_graph.components graph (Relset.full n) with
    | [] | [ _ ] -> ()
    | comps ->
      let render c =
        "{"
        ^ String.concat "," (Query.aliases q c)
        ^ "}"
      in
      add
        (err ~code:"disconnected-join-graph"
           (Printf.sprintf "join graph is disconnected; components: %s"
              (String.concat " | " (List.map render comps))))
  end;
  List.rev !findings
