module Relset = Rdb_util.Relset
module Prng = Rdb_util.Prng
module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Predicate = Rdb_query.Predicate

(* A sampled intermediate: row ids per member relation (in [rels] order),
   such that the full sub-join is approximated by [nrows * scale] rows. *)
type node = {
  rels : int array;
  width : int;
  data : int array;
  nrows : int;
  scale : float;
}

type t = {
  catalog : Catalog.t;
  q : Query.t;
  graph : Join_graph.t;
  prng : Prng.t;
  sample_size : int;
  nodes : (Relset.t, node) Hashtbl.t;
  mutable probes : int;
}

let create ?(sample_size = 512) catalog q =
  {
    catalog;
    q;
    graph = Join_graph.make q;
    prng = Prng.create 17;
    sample_size;
    nodes = Hashtbl.create 64;
    probes = 0;
  }

let rel_table t i = Catalog.table_exn t.catalog t.q.Query.rels.(i).Query.table

let pos_of node rel =
  let rec scan i =
    if i >= node.width then invalid_arg "Join_sample: relation not present"
    else if node.rels.(i) = rel then i
    else scan (i + 1)
  in
  scan 0

(* Reservoir-style cap: keep at most [sample_size] tuples, folding the
   discarded fraction into the scale factor. *)
let cap t node =
  if node.nrows <= t.sample_size then node
  else begin
    let keep = t.sample_size in
    let chosen = Array.init node.nrows Fun.id in
    Prng.shuffle t.prng chosen;
    let data = Array.make (keep * node.width) 0 in
    for i = 0 to keep - 1 do
      Array.blit node.data (chosen.(i) * node.width) data (i * node.width)
        node.width
    done;
    {
      node with
      data;
      nrows = keep;
      scale = node.scale *. (float_of_int node.nrows /. float_of_int keep);
    }
  end

let singleton t rel =
  let tbl = rel_table t rel in
  let preds = Query.preds_of_cols t.q rel in
  let out = Rdb_util.Int_vec.create ~capacity:256 () in
  let n = Table.nrows tbl in
  t.probes <- t.probes + n;
  for row = 0 to n - 1 do
    let ok =
      List.for_all
        (fun (col, p) ->
          match Table.column tbl col with
          | Column.Ints cells -> Predicate.eval_int p cells.(row)
          | Column.Strs cells -> Predicate.eval_str p cells.(row))
        preds
    in
    if ok then Rdb_util.Int_vec.push out row
  done;
  let data = Rdb_util.Int_vec.to_array out in
  cap t
    { rels = [| rel |]; width = 1; data; nrows = Array.length data; scale = 1.0 }

let extend t parent r =
  let s' = Relset.of_list (Array.to_list parent.rels) in
  let edges = Query.edges_between t.q s' (Relset.singleton r) in
  let tbl = rel_table t r in
  (* Prefer an indexed join column on r; otherwise build a small hash over
     r's filtered rows. *)
  let indexed =
    List.find_map
      (fun e ->
        match
          Catalog.index t.catalog ~table:(Table.name tbl) ~col:e.Query.r.Query.col
        with
        | Some index -> Some (e, index)
        | None -> None)
      edges
  in
  let preds = Query.preds_of_cols t.q r in
  let row_ok row =
    List.for_all
      (fun (col, p) ->
        match Table.column tbl col with
        | Column.Ints cells -> Predicate.eval_int p cells.(row)
        | Column.Strs cells -> Predicate.eval_str p cells.(row))
      preds
  in
  let out = Rdb_util.Int_vec.create ~capacity:256 () in
  let emitted = ref 0 in
  let check_other_edges base row =
    List.for_all
      (fun e ->
        let pos = pos_of parent e.Query.l.Query.rel in
        let ov =
          Table.int_cell (rel_table t parent.rels.(pos))
            ~row:parent.data.(base + pos)
            ~col:e.Query.l.Query.col
        in
        ov <> Column.null_int
        && ov = Table.int_cell tbl ~row ~col:e.Query.r.Query.col)
      edges
  in
  let emit base row =
    for c = 0 to parent.width - 1 do
      Rdb_util.Int_vec.push out parent.data.(base + c)
    done;
    Rdb_util.Int_vec.push out row;
    incr emitted
  in
  (match indexed with
   | Some (e, index) ->
     let opos = pos_of parent e.Query.l.Query.rel in
     let rows = Hash_index.rows index and starts = Hash_index.starts index in
     for i = 0 to parent.nrows - 1 do
       let base = i * parent.width in
       let key =
         Table.int_cell (rel_table t parent.rels.(opos))
           ~row:parent.data.(base + opos)
           ~col:e.Query.l.Query.col
       in
       let b = Hash_index.find index key in
       if b >= 0 then begin
         t.probes <- t.probes + (starts.(b + 1) - starts.(b));
         for c = starts.(b) to starts.(b + 1) - 1 do
           let row = rows.(c) in
           if row_ok row && check_other_edges base row then emit base row
         done
       end
     done
   | None ->
     let n = Table.nrows tbl in
     t.probes <- t.probes + (parent.nrows * n);
     for i = 0 to parent.nrows - 1 do
       let base = i * parent.width in
       for row = 0 to n - 1 do
         if row_ok row && check_other_edges base row then emit base row
       done
     done);
  cap t
    {
      rels = Array.append parent.rels [| r |];
      width = parent.width + 1;
      data = Rdb_util.Int_vec.to_array out;
      nrows = !emitted;
      scale = parent.scale;
    }

let rec node_of t s =
  match Hashtbl.find_opt t.nodes s with
  | Some node -> node
  | None ->
    let node =
      if Relset.cardinal s = 1 then singleton t (Relset.min_elt s)
      else begin
        let r = Join_graph.removable t.graph s in
        extend t (node_of t (Relset.remove r s)) r
      end
    in
    Hashtbl.replace t.nodes s node;
    node

let card t s =
  if Relset.is_empty s then invalid_arg "Join_sample.card: empty set";
  let node = node_of t s in
  float_of_int node.nrows *. node.scale

let probes t = t.probes
