module Relset = Rdb_util.Relset
module Query = Rdb_query.Query
module Cost_model = Rdb_cost.Cost_model

type scan_access =
  | Seq_scan
  | Index_scan of { col : int; key : int }

type join_algo =
  | Hash_join
  | Index_nl of { inner_col : int }
  | Nested_loop

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

(* Index nested loop probes the inner base relation's index instead of
   running the inner subtree, so it drops the inner's cost; each match is
   filtered by the inner's own predicates and every edge but the first,
   which is the index key. A join inner is a malformed plan that Plan_lint
   reports; it counts no predicates of its own. *)
let join_cost cp ~npreds algo ~inner ~edges ~outer_rows ~inner_rows ~out
    ~outer_cost ~inner_cost =
  match algo with
  | Hash_join ->
    outer_cost +. inner_cost
    +. Cost_model.hash_join cp ~build:inner_rows ~probe:outer_rows ~out
  | Nested_loop ->
    outer_cost +. inner_cost
    +. Cost_model.nested_loop cp ~outer:outer_rows ~inner:inner_rows ~out
  | Index_nl _ ->
    let inner_preds =
      match inner with Scan s -> npreds s.scan_rel | Join _ -> 0
    in
    outer_cost
    +. Cost_model.index_nested_loop cp ~outer:outer_rows ~out
         ~npreds:(inner_preds + List.length edges - 1)

module type ARITH = sig
  type t
  val zero : t
  val add : t -> t -> t
  val mul : t -> t -> t
  val max : t -> t -> t
end

module Usage (N : ARITH) = struct
  let seq_scan ~table_rows = table_rows
  let lookup ~candidates = candidates
  let probe ~outer_rows = outer_rows
  let hash_build ~inner_rows = inner_rows
  let hash_emit ~matches = matches
  let hash_table ~inner_rows = inner_rows
  let nl_rescan ~inner_rows = inner_rows
  let slots ~rows ~width = N.mul rows width

  let join_work algo ~outer_work ~inner_work ~outer_rows ~inner_rows ~out
      ~fanout =
    match algo with
    | Hash_join ->
      N.add (N.add outer_work inner_work)
        (N.add
           (N.add (hash_build ~inner_rows) (probe ~outer_rows))
           (hash_emit ~matches:out))
    | Nested_loop ->
      N.add (N.add outer_work inner_work)
        (N.mul outer_rows (nl_rescan ~inner_rows))
    | Index_nl _ ->
      N.add outer_work (N.add (probe ~outer_rows) (lookup ~candidates:fanout))

  let pipelined_peak ~outer_mem ~outer_slots ~out_slots =
    N.max outer_mem (N.add outer_slots out_slots)

  let join_peak algo ~outer_mem ~outer_slots ~inner_mem ~inner_slots
      ~inner_rows ~out_slots =
    let blocking aux =
      N.max outer_mem
        (N.max (N.add outer_slots inner_mem)
           (N.add (N.add outer_slots inner_slots) (N.add aux out_slots)))
    in
    match algo with
    | Hash_join -> blocking (hash_table ~inner_rows)
    | Nested_loop -> blocking N.zero
    | Index_nl _ -> pipelined_peak ~outer_mem ~outer_slots ~out_slots
end

let probed_rel j =
  match j.inner with
  | Scan s -> s.scan_rel
  | Join _ -> invalid_arg "Plan: index nested loop over a join"

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
         | Nested_loop -> "NL");
      Buffer.add_char buf ' ';
      go j.outer;
      Buffer.add_char buf ' ';
      go j.inner;
      Buffer.add_char buf ')'
  in
  go t;
  Buffer.contents buf
