module Relset = Rdb_util.Relset
module Query = Rdb_query.Query

type scan_access =
  | Seq_scan
  | Index_scan of { col : int; key : int }

type join_algo =
  | Hash_join
  | Index_nl of { inner_col : int }
  | Nested_loop
  | Merge_join

type t =
  | Scan of scan
  | Join of join

and scan = {
  scan_rel : int;
  access : scan_access;
  scan_est : float;
  scan_cost : float;
}

and join = {
  algo : join_algo;
  outer : t;
  inner : t;
  join_est : float;
  join_cost : float;
  join_edges : Query.edge list;
}

let rec rel_set = function
  | Scan s -> Relset.singleton s.scan_rel
  | Join j -> Relset.union (rel_set j.outer) (rel_set j.inner)

let est_rows = function
  | Scan s -> s.scan_est
  | Join j -> j.join_est

let cost = function
  | Scan s -> s.scan_cost
  | Join j -> j.join_cost

let joins_bottom_up t =
  let rec go acc = function
    | Scan _ -> acc
    | Join j ->
      let acc = go acc j.outer in
      let acc = go acc j.inner in
      j :: acc
  in
  List.rev (go [] t)

let trigger_order t =
  (* Post-order numbering is the list position; the stable sort keeps it
     as the last tie-break. *)
  let rec go depth acc = function
    | Scan _ -> acc
    | Join j ->
      let acc = go (depth + 1) (go (depth + 1) acc j.outer) j.inner in
      (j, Relset.union (rel_set j.outer) (rel_set j.inner), depth) :: acc
  in
  List.rev (go 0 [] t)
  |> List.stable_sort (fun (_, s1, d1) (_, s2, d2) ->
         match Int.compare (Relset.cardinal s1) (Relset.cardinal s2) with
         | 0 -> Int.compare d2 d1
         | c -> c)
  |> List.map (fun (j, set, _) -> (j, set))

let scans t =
  let rec go acc = function
    | Scan s -> s :: acc
    | Join j -> go (go acc j.inner) j.outer
  in
  List.rev (go [] t)

let n_joins t = List.length (joins_bottom_up t)

let algo_name = function
  | Hash_join -> "Hash Join"
  | Index_nl _ -> "Index Nested Loop"
  | Nested_loop -> "Nested Loop"
  | Merge_join -> "Merge Join"

let rec same_shape a b =
  match (a, b) with
  | Scan s1, Scan s2 -> s1.scan_rel = s2.scan_rel && s1.access = s2.access
  | Join j1, Join j2 ->
    j1.algo = j2.algo && same_shape j1.outer j2.outer
    && same_shape j1.inner j2.inner
  | Scan _, Join _ | Join _, Scan _ -> false

let shape q t =
  let buf = Buffer.create 64 in
  let rec go = function
    | Scan s ->
      Buffer.add_string buf (Query.rel_alias q s.scan_rel);
      (match s.access with
       | Seq_scan -> ()
       | Index_scan { col; _ } -> Buffer.add_string buf (Printf.sprintf "@c%d" col))
    | Join j ->
      Buffer.add_char buf '(';
      Buffer.add_string buf
        (match j.algo with
         | Hash_join -> "HJ"
         | Index_nl _ -> "INL"
         | Nested_loop -> "NL"
         | Merge_join -> "MJ");
      Buffer.add_char buf ' ';
      go j.outer;
      Buffer.add_char buf ' ';
      go j.inner;
      Buffer.add_char buf ')'
  in
  go t;
  Buffer.contents buf
