module Relset = Rdb_util.Relset
module Int_vec = Rdb_util.Int_vec
module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Eq_classes = Rdb_query.Eq_classes
module Union_find = Rdb_util.Union_find
module Predicate = Rdb_query.Predicate

(* ------------------------------------------------------------------ *)
(* Two engines compute true cardinalities.

   The fast path applies when the query's join-attribute "class graph" is
   a tree: union the column references that its equi-join edges equate
   into classes; if the bipartite relation/class graph is acyclic (true
   for every JOB-shaped query, whose cycles only re-state the same
   equality), the cardinality of any connected relation subset factorizes,
   and we evaluate it by sum-product message passing over per-class count
   vectors — no intermediate result is ever materialized, so even the
   billion-row unfiltered sub-joins the perfect-(n) oracle must price are
   counted in milliseconds.

   The fallback materializes each sub-join bottom-up, projected onto its
   boundary join columns. It is exact for arbitrary (cyclic-class)
   queries but pays the full intermediate sizes. *)
(* ------------------------------------------------------------------ *)

(* A materialized sub-join (fallback engine): [width] cells per tuple,
   holding the values of the boundary columns [cols]. *)
type inter = {
  cols : (int * int) array;
  width : int;
  data : int array;
  inter_rows : int;
}

(* Message maps: join-key value -> number of consistent join tuples. Open
   addressing with linear probing over a power-of-two table kept at most
   half full; an empty slot holds [Column.null_int], which never enters a
   message because a NULL key joins nothing. Keys and weights sit in two
   flat arrays, so a probe neither hashes polymorphically nor boxes. *)
module Msg_map = struct
  type t = {
    mutable keys : int array;
    mutable vals : Float.Array.t;
    mutable size : int;
  }

  let empty_key = Column.null_int

  let create n =
    let cap = ref 16 in
    while !cap < 2 * n do cap := 2 * !cap done;
    {
      keys = Array.make !cap empty_key;
      vals = Float.Array.make !cap 0.0;
      size = 0;
    }

  let length t = t.size

  (* Join keys are mostly dense ids, and a hub's rows probe them in
     near-ascending order: folding the high bits into the low ones keeps
     neighbouring keys in neighbouring slots (cache-friendly) while
     power-of-two strides still spread out. *)
  let home keys k =
    (k lxor (k lsr 16) lxor (k lsr 32)) land (Array.length keys - 1)

  (* The slot holding [k], or the empty slot where it would go. *)
  let probe keys k =
    let mask = Array.length keys - 1 in
    let i = ref (home keys k) in
    while
      let k' = Array.unsafe_get keys !i in
      k' <> k && k' <> empty_key
    do
      i := (!i + 1) land mask
    done;
    !i

  let slot t k =
    if k = empty_key then -1
    else
      let i = probe t.keys k in
      if Array.unsafe_get t.keys i = k then i else -1

  let value t i = Float.Array.unsafe_get t.vals i

  let grow t =
    let keys = t.keys and vals = t.vals in
    let cap = 2 * Array.length keys in
    t.keys <- Array.make cap empty_key;
    t.vals <- Float.Array.make cap 0.0;
    Array.iteri
      (fun i k ->
        if k <> empty_key then begin
          let j = probe t.keys k in
          t.keys.(j) <- k;
          Float.Array.set t.vals j (Float.Array.get vals i)
        end)
      keys

  (* The slot of [k], claimed with weight 0.0 if [k] was absent. *)
  let claim t k =
    if k = empty_key then invalid_arg "Oracle.Msg_map: NULL key";
    if 2 * (t.size + 1) > Array.length t.keys then grow t;
    let i = probe t.keys k in
    if Array.unsafe_get t.keys i <> k then begin
      t.keys.(i) <- k;
      t.size <- t.size + 1
    end;
    i

  (* Inlined so that the hot loops pass [w] unboxed. *)
  let[@inline] add t k w =
    let i = claim t k in
    Float.Array.unsafe_set t.vals i (w +. Float.Array.unsafe_get t.vals i)

  let[@inline] set t k w = Float.Array.unsafe_set t.vals (claim t k) w

  let iter f t =
    Array.iteri
      (fun i k -> if k <> empty_key then f k (Float.Array.get t.vals i))
      t.keys
end

type t = {
  catalog : Catalog.t;
  q : Query.t;
  graph : Join_graph.t;
  cards : (Relset.t, int) Hashtbl.t;
  tuples : (Relset.t, inter) Hashtbl.t;
  filtered : int array option array;
  mutable ensured : int;
  mutable materialized_rows : int;
  (* class-tree machinery *)
  tree : bool;                         (* class graph is acyclic *)
  ports : (int * int) list array;      (* per rel: (class, col) pairs *)
  msg_single_memo : (Relset.t * int, Msg_map.t) Hashtbl.t;
  msg_set_memo : (Relset.t * int, Msg_map.t) Hashtbl.t;
  port_keys : (int * int, int array) Hashtbl.t;
      (* (rel, col) -> the column's cells at the filtered rows *)
}

(* ---- class analysis ---- *)

(* The join-column classes, and whether the bipartite relation/class graph
   is a forest. *)
let analyze_classes (q : Query.t) =
  let classes = Eq_classes.make q.Query.edges in
  let n = Query.n_rels q in
  let ports = Array.make n [] in
  List.iter
    (fun ((cr : Query.colref), cls) ->
      ports.(cr.Query.rel) <- (cls, cr.Query.col) :: ports.(cr.Query.rel))
    (Eq_classes.members classes);
  (* A relation whose two different columns land in one class would break
     the single-column-per-port invariant; treat as non-tree. *)
  let single_col_ports =
    Array.for_all
      (fun ps ->
        let classes = List.map fst ps in
        List.length classes = List.length (List.sort_uniq compare classes))
      ports
  in
  (* Acyclicity via union-find over nodes: relations are 0..n-1, classes
     are n, n+1, ... *)
  let uf = Union_find.create (n + Eq_classes.n_classes classes) in
  let acyclic = ref single_col_ports in
  Array.iteri
    (fun rel ps ->
      List.iter
        (fun (cls, _) ->
          if not (Union_find.union uf rel (n + cls)) then acyclic := false)
        ps)
    ports;
  (!acyclic, ports)

let create ?carry catalog q =
  let tree, ports = analyze_classes q in
  let t =
    {
      catalog;
      q;
      graph = Join_graph.make q;
      cards = Hashtbl.create 256;
      tuples = Hashtbl.create 64;
      filtered = Array.make (Query.n_rels q) None;
      ensured = 0;
      materialized_rows = 0;
      tree;
      ports;
      msg_single_memo = Hashtbl.create 64;
      msg_set_memo = Hashtbl.create 64;
      port_keys = Hashtbl.create 16;
    }
  in
  (match carry with
   | None -> ()
   | Some (prev, same_as) ->
     Array.iteri
       (fun rel old ->
         if old >= 0 then begin
           t.filtered.(rel) <- prev.filtered.(old);
           Hashtbl.iter
             (fun (r, col) keys ->
               if r = old then Hashtbl.replace t.port_keys (rel, col) keys)
             prev.port_keys
         end)
       same_as);
  t

let query t = t.q

let rel_table t i = Catalog.table_exn t.catalog t.q.Query.rels.(i).Query.table

let filtered_rowids t i =
  match t.filtered.(i) with
  | Some rows -> rows
  | None ->
    let tbl = rel_table t i in
    let keep = Predicate.compile_filter tbl (Query.preds_of_cols t.q i) in
    let out = Int_vec.create ~capacity:1024 () in
    for row = 0 to Table.nrows tbl - 1 do
      if keep row then Int_vec.push out row
    done;
    let rows = Int_vec.to_array out in
    t.filtered.(i) <- Some rows;
    rows

let base_rows t i = Array.length (filtered_rowids t i)

(* ---- sum-product engine ---- *)

(* Relations of [s] adjacent through any class except [cut]. *)
let components_without t s ~cut =
  let adjacent a b =
    List.exists
      (fun (ca, _) ->
        ca <> cut && List.exists (fun (cb, _) -> cb = ca) t.ports.(b))
      t.ports.(a)
  in
  let remaining = ref s and comps = ref [] in
  while not (Relset.is_empty !remaining) do
    let seed = Relset.min_elt !remaining in
    let comp = ref (Relset.singleton seed) in
    let changed = ref true in
    while !changed do
      changed := false;
      Relset.iter
        (fun i ->
          if (not (Relset.mem i !comp))
             && Relset.fold (fun j acc -> acc || adjacent i j) !comp false
          then begin
            comp := Relset.add i !comp;
            changed := true
          end)
        !remaining
    done;
    comps := !comp :: !comps;
    remaining := Relset.diff !remaining !comp
  done;
  !comps

let port_col t rel cls = List.assoc_opt cls t.ports.(rel)

let touches_class t comp cls =
  Relset.fold
    (fun i acc -> acc || port_col t i cls <> None)
    comp false

(* A port's join keys, one per filtered row of [rel], gathered once. *)
let port_keys t rel col =
  match Hashtbl.find_opt t.port_keys (rel, col) with
  | Some keys -> keys
  | None ->
    let rows = filtered_rowids t rel in
    let keys =
      match Table.column (rel_table t rel) col with
      | Column.Ints cells when Array.length rows = Array.length cells -> cells
      | Column.Ints cells -> Array.map (fun row -> cells.(row)) rows
      | Column.Strs _ -> invalid_arg "Oracle: join key on a string column"
    in
    Hashtbl.replace t.port_keys (rel, col) keys;
    keys

(* Pointwise product of message maps, iterating the smallest and
   multiplying the others in (stable) size order. *)
let product_maps maps =
  match maps with
  | [] -> None
  | [ m ] -> Some m
  | _ ->
    let sorted =
      List.sort
        (fun a b -> Int.compare (Msg_map.length a) (Msg_map.length b))
        maps
    in
    (match sorted with
     | smallest :: rest ->
       let rest = Array.of_list rest in
       let out = Msg_map.create (Msg_map.length smallest) in
       let keys = smallest.Msg_map.keys in
       for i = 0 to Array.length keys - 1 do
         let v = keys.(i) in
         if v <> Msg_map.empty_key then begin
           let acc = ref (Msg_map.value smallest i) and p = ref 0 in
           while !p < Array.length rest do
             let s = Msg_map.slot rest.(!p) v in
             if s < 0 then p := Array.length rest + 1
             else begin
               acc := !acc *. Msg_map.value rest.(!p) s;
               incr p
             end
           done;
           if !p = Array.length rest then Msg_map.set out v !acc
         end
       done;
       Some out
     | [] -> None)

(* Weigh the [n] filtered rows of a relation: row [i] weighs the product,
   in port order, of the weights its keys select from [maps] ([keys.(p).(i)]
   is row [i]'s key on port [p]), and a NULL or unmatched key drops it.
   Without [group] the result is the sum of the weights in filtered-rowid
   order; with [Some (g, into)] each weight is added to [into] under the
   row's key [g.(i)] instead (NULL keys skipped) and the result is 0. *)
let weigh_rows ~n ~keys ~maps ~group =
  let np = Array.length maps in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let w = ref 1.0 and p = ref 0 in
    while !p < np do
      let s = Msg_map.slot maps.(!p) keys.(!p).(i) in
      if s < 0 then p := np + 1
      else begin
        w := !w *. Msg_map.value maps.(!p) s;
        incr p
      end
    done;
    if !p = np then
      match group with
      | None -> total := !total +. !w
      | Some (g, into) ->
        let v = g.(i) in
        if v <> Column.null_int then Msg_map.add into v !w
  done;
  !total

(* The message maps a relation's rows are weighed against: for each of
   [rel]'s ports other than [cut] that some branch hangs on, the port's
   key array and the product message of the branches hanging there. *)
let rec constrained t rel ~cut branches =
  let ports =
    List.filter_map
      (fun (c', col') ->
        if c' = cut then None
        else
          match
            List.filter_map
              (fun (ca, sub) -> if ca = c' then Some sub else None)
              branches
          with
          | [] -> None
          | subs ->
            let union = List.fold_left Relset.union Relset.empty subs in
            Some (port_keys t rel col', msg_set t union ~cls:c'))
      t.ports.(rel)
  in
  (Array.of_list (List.map fst ports), Array.of_list (List.map snd ports))

(* msg_set (B, c): number of join tuples of B per value of class c, where
   B may split into several independent branches once c is cut. *)
and msg_set t b ~cls =
  match Hashtbl.find_opt t.msg_set_memo (b, cls) with
  | Some m -> m
  | None ->
    let comps = components_without t b ~cut:cls in
    let maps = List.map (fun comp -> msg_single t comp ~cls) comps in
    let m =
      match product_maps maps with
      | Some m -> m
      | None -> Msg_map.create 0
    in
    Hashtbl.replace t.msg_set_memo (b, cls) m;
    m

(* msg_single (comp, c): comp stays connected with c cut, so exactly one
   relation in it (the hub) carries a port of class c. *)
and msg_single t comp ~cls =
  match Hashtbl.find_opt t.msg_single_memo (comp, cls) with
  | Some m -> m
  | None ->
    let hub =
      match
        List.filter (fun i -> port_col t i cls <> None) (Relset.to_list comp)
      with
      | [ h ] -> h
      | _ -> invalid_arg "Oracle: class graph is not a tree"
    in
    let out_col =
      match port_col t hub cls with Some c -> c | None -> assert false
    in
    let rest = Relset.remove hub comp in
    (* Branches of [rest], grouped by the hub port class they hang on. *)
    let branches =
      List.map
        (fun sub ->
          let attach =
            List.find_map
              (fun (c', _) ->
                if c' <> cls && touches_class t sub c' then Some c' else None)
              t.ports.(hub)
          in
          match attach with
          | Some c' -> (c', sub)
          | None -> invalid_arg "Oracle: dangling branch (not a tree)")
        (components_without t rest ~cut:(-1))
    in
    let keys, maps = constrained t hub ~cut:cls branches in
    let m = Msg_map.create 0 in
    ignore
      (weigh_rows ~n:(base_rows t hub) ~keys ~maps
         ~group:(Some (port_keys t hub out_col, m)));
    Hashtbl.replace t.msg_single_memo (comp, cls) m;
    m

(* Cardinality via the tree engine: anchor at the relation with the fewest
   filtered rows and multiply in the branch messages per row. *)
let card_tree t s =
  let members = Relset.to_list s in
  let anchor =
    List.fold_left
      (fun best i ->
        match best with
        | None -> Some i
        | Some b -> if base_rows t i < base_rows t b then Some i else best)
      None members
  in
  let anchor = match anchor with Some a -> a | None -> assert false in
  let rest = Relset.remove anchor s in
  let branches =
    List.map
      (fun sub ->
        let attach =
          List.find_map
            (fun (c', _) -> if touches_class t sub c' then Some c' else None)
            t.ports.(anchor)
        in
        match attach with
        | Some c' -> (c', sub)
        | None -> invalid_arg "Oracle: subset not connected through anchor")
      (components_without t rest ~cut:(-1))
  in
  let keys, maps = constrained t anchor ~cut:(-1) branches in
  weigh_rows ~n:(base_rows t anchor) ~keys ~maps ~group:None

(* ---- materialization engine (fallback for non-tree class graphs) ---- *)

let boundary t s =
  let acc = ref [] in
  let consider (cr : Query.colref) other =
    if Relset.mem cr.Query.rel s && not (Relset.mem other s) then
      acc := (cr.Query.rel, cr.Query.col) :: !acc
  in
  List.iter
    (fun { Query.l; r } ->
      consider l r.Query.rel;
      consider r l.Query.rel)
    t.q.Query.edges;
  List.sort_uniq compare !acc |> Array.of_list

let singleton_inter t i =
  let s = Relset.singleton i in
  let cols = boundary t s in
  let rows = filtered_rowids t i in
  let tbl = rel_table t i in
  let width = Array.length cols in
  let data = Array.make (Array.length rows * width) 0 in
  Array.iteri
    (fun idx row ->
      Array.iteri
        (fun c (_, col) -> data.((idx * width) + c) <- Table.int_cell tbl ~row ~col)
        cols)
    rows;
  { cols; width; data; inter_rows = Array.length rows }

let pos_of inter (rel, col) =
  let rec scan i =
    if i >= Array.length inter.cols then
      invalid_arg "Oracle: column not in boundary projection"
    else if inter.cols.(i) = (rel, col) then i
    else scan (i + 1)
  in
  scan 0

let extend t s' inter' r =
  let s = Relset.add r s' in
  let edges = Query.edges_between t.q s' (Relset.singleton r) in
  assert (edges <> []);
  let key_pos = Array.of_list (List.map (fun e -> pos_of inter' (e.Query.l.Query.rel, e.Query.l.Query.col)) edges) in
  let key_cols = Array.of_list (List.map (fun e -> e.Query.r.Query.col) edges) in
  let tbl = rel_table t r in
  let r_rows = filtered_rowids t r in
  let out_cols = boundary t s in
  let width = Array.length out_cols in
  let out_sources =
    Array.map
      (fun (rel, col) ->
        if rel = r then -(col + 1) else pos_of inter' (rel, col))
      out_cols
  in
  let out = Int_vec.create ~capacity:4096 () in
  let rows = ref 0 in
  let emit tuple_base r_row =
    Array.iter
      (fun src ->
        if src < 0 then
          Int_vec.push out (Table.int_cell tbl ~row:r_row ~col:(-src - 1))
        else Int_vec.push out inter'.data.(tuple_base + src))
      out_sources;
    incr rows
  in
  (match key_cols with
   | [| kc |] ->
     let index = Hashtbl.create (Array.length r_rows) in
     Array.iter
       (fun row ->
         let key = Table.int_cell tbl ~row ~col:kc in
         if key <> Column.null_int then
           Hashtbl.replace index key
             (row :: Option.value ~default:[] (Hashtbl.find_opt index key)))
       r_rows;
     let kp = key_pos.(0) in
     for i = 0 to inter'.inter_rows - 1 do
       let base = i * inter'.width in
       let key = inter'.data.(base + kp) in
       if key <> Column.null_int then
         match Hashtbl.find_opt index key with
         | Some matches -> List.iter (emit base) matches
         | None -> ()
     done
   | _ ->
     let index = Hashtbl.create (Array.length r_rows) in
     Array.iter
       (fun row ->
         let key = Array.map (fun col -> Table.int_cell tbl ~row ~col) key_cols in
         if not (Array.exists (fun v -> v = Column.null_int) key) then
           Hashtbl.replace index key
             (row :: Option.value ~default:[] (Hashtbl.find_opt index key)))
       r_rows;
     for i = 0 to inter'.inter_rows - 1 do
       let base = i * inter'.width in
       let key = Array.map (fun p -> inter'.data.(base + p)) key_pos in
       if not (Array.exists (fun v -> v = Column.null_int) key) then
         match Hashtbl.find_opt index key with
         | Some matches -> List.iter (emit base) matches
         | None -> ()
     done);
  t.materialized_rows <- t.materialized_rows + !rows;
  { cols = out_cols; width; data = Int_vec.to_array out; inter_rows = !rows }

let rec tuples_of t s =
  match Hashtbl.find_opt t.tuples s with
  | Some inter -> inter
  | None ->
    let inter =
      if Relset.cardinal s = 1 then singleton_inter t (Relset.min_elt s)
      else begin
        let r = Join_graph.removable t.graph s in
        let s' = Relset.remove r s in
        extend t s' (tuples_of t s') r
      end
    in
    Hashtbl.replace t.tuples s inter;
    Hashtbl.replace t.cards s inter.inter_rows;
    inter

(* ---- public interface ---- *)

let compute_card t s =
  if t.tree then begin
    let v = card_tree t s in
    let card = int_of_float (Float.round v) in
    Hashtbl.replace t.cards s card;
    card
  end
  else begin
    let inter = tuples_of t s in
    let to_drop =
      Hashtbl.fold
        (fun set _ acc -> if Relset.cardinal set > 1 then set :: acc else acc)
        t.tuples []
    in
    List.iter (Hashtbl.remove t.tuples) to_drop;
    inter.inter_rows
  end

let true_card t s =
  if Relset.is_empty s then invalid_arg "Oracle.true_card: empty set";
  if not (Join_graph.is_connected t.graph s) then
    invalid_arg "Oracle.true_card: disconnected set";
  match Hashtbl.find_opt t.cards s with
  | Some card -> card
  | None -> compute_card t s

let ensure_up_to t size =
  if size > t.ensured then begin
    let subsets = Join_graph.connected_subsets t.graph in
    if t.tree then
      List.iter
        (fun s ->
          if Relset.cardinal s <= size && not (Hashtbl.mem t.cards s) then
            ignore (compute_card t s))
        subsets
    else begin
      let by_size = Array.make (Join_graph.n t.graph + 1) [] in
      List.iter
        (fun s ->
          let k = Relset.cardinal s in
          by_size.(k) <- s :: by_size.(k))
        subsets;
      let max_k = Int.min size (Join_graph.n t.graph) in
      for k = 1 to max_k do
        List.iter (fun s -> ignore (tuples_of t s)) by_size.(k);
        if k >= 2 then
          List.iter (fun s -> Hashtbl.remove t.tuples s) by_size.(k - 1)
      done;
      List.iter (fun s -> Hashtbl.remove t.tuples s) by_size.(max_k)
    end;
    (* The cards are what callers need; the message maps and port keys
       (tree engine) can be rebuilt on demand and would otherwise pin tens
       of MB per query. *)
    Hashtbl.reset t.msg_single_memo;
    Hashtbl.reset t.msg_set_memo;
    Hashtbl.reset t.port_keys;
    t.ensured <- size
  end

let stats t = (Hashtbl.length t.cards, t.materialized_rows)

let uses_tree_engine t = t.tree
