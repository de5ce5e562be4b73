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
   queries but pays the full intermediate sizes. Join sampling runs the
   same builder with a cap on the rows each sub-join keeps. *)
(* ------------------------------------------------------------------ *)

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

(* A sub-join built bottom-up: [rows] tuples of the values of its boundary
   join columns [cols] (the columns with an edge leaving the set), row
   major in [data]. It stands for [rows *. scale] rows of the full
   sub-join; [scale] exceeds 1 once a sample cap has dropped rows. *)
type sub_join = {
  cols : (int * int) array;
  data : int array;
  rows : int;
  scale : float;
}

type t = {
  catalog : Catalog.t;
  q : Query.t;
  graph : Join_graph.t;
  cards : (Relset.t, int) Hashtbl.t;
  tuples : (Relset.t, sub_join) Hashtbl.t;
  filtered : int array option array;
  mutable ensured : int;
  (* class-tree machinery *)
  tree : bool;                         (* class graph is acyclic *)
  ports : (int * int) list array;      (* per rel: (class, col) pairs *)
  msg_single_memo : (Relset.t * int, Msg_map.t) Hashtbl.t;
  msg_set_memo : (Relset.t * int, Msg_map.t) Hashtbl.t;
  port_keys : (int * int, int array) Hashtbl.t;
      (* (rel, col) -> the column's cells at the filtered rows *)
  key_index : (int * int, Hash_index.t) Hashtbl.t;
      (* (rel, col) -> its port keys indexed by key (sub-join probes) *)
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
      tree;
      ports;
      msg_single_memo = Hashtbl.create 64;
      msg_set_memo = Hashtbl.create 64;
      port_keys = Hashtbl.create 16;
      key_index = Hashtbl.create 16;
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

(* ---- sub-join builder: the fallback engine, and join sampling ---- *)

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

(* A relation's port keys indexed by key: bucket positions are filtered
   row positions, ascending. Built once, like the key arrays. *)
let key_index t rel col =
  match Hashtbl.find_opt t.key_index (rel, col) with
  | Some index -> index
  | None ->
    let index = Hash_index.of_keys (port_keys t rel col) in
    Hashtbl.replace t.key_index (rel, col) index;
    index

(* Where a boundary column of a sub-join sits in its tuples. *)
let pos_in cols col =
  let rec find i = if cols.(i) = col then i else find (i + 1) in
  find 0

(* One tuple of no columns: the sub-join of the empty set. *)
let unit_join = { cols = [||]; data = [||]; rows = 1; scale = 1.0 }

(* The matches of [parent], the sub-join of [s'], with [r]'s filtered
   rows, as (parent tuple, row position) vectors in (parent tuple,
   ascending position) order: probe [r]'s index on the first edge's key
   and check the other edges per candidate. With no edge ([s'] empty),
   every row matches. *)
let matches t s' parent r =
  match Array.of_list (Query.edges_between t.q s' (Relset.singleton r)) with
  | [||] -> (Array.make (base_rows t r) 0, Array.init (base_rows t r) Fun.id)
  | edges ->
    let at =
      Array.map
        (fun { Query.l; _ } -> pos_in parent.cols (l.Query.rel, l.Query.col))
        edges
    in
    let r_keys =
      Array.map (fun { Query.r = r'; _ } -> port_keys t r r'.Query.col) edges
    in
    let index = key_index t r edges.(0).Query.r.Query.col in
    let bucket_rows = Hash_index.rows index
    and starts = Hash_index.starts index in
    let pw = Array.length parent.cols in
    let tuples = Int_vec.create ~capacity:1024 ()
    and positions = Int_vec.create ~capacity:1024 () in
    for i = 0 to parent.rows - 1 do
      let base = i * pw in
      let b = Hash_index.find index parent.data.(base + at.(0)) in
      if b >= 0 then
        for c = starts.(b) to starts.(b + 1) - 1 do
          let p = bucket_rows.(c) in
          let e = ref 1 in
          while
            !e < Array.length edges
            &&
            let v = parent.data.(base + at.(!e)) in
            v <> Column.null_int && v = r_keys.(!e).(p)
          do
            incr e
          done;
          if !e = Array.length edges then begin
            Int_vec.push tuples i;
            Int_vec.push positions p
          end
        done
    done;
    (Int_vec.to_array tuples, Int_vec.to_array positions)

(* The sub-join of [s' + r] from the sub-join [parent] of [s']. With
   [cap = (size, prng)] and more than [size] matches, a shuffle picks
   [size] of them and the scale grows by the dropped fraction; only the
   picked matches are materialized. *)
let join t ?cap s' parent r =
  let tuples, positions = matches t s' parent r in
  let n = Array.length positions in
  let tuples, positions, scale =
    match cap with
    | Some (size, prng) when n > size ->
      let chosen = Array.init n Fun.id in
      Rdb_util.Prng.shuffle prng chosen;
      let pick a = Array.init size (fun i -> a.(chosen.(i))) in
      ( pick tuples,
        pick positions,
        parent.scale *. (float_of_int n /. float_of_int size) )
    | _ -> (tuples, positions, parent.scale)
  in
  let rows = Array.length positions in
  let cols = boundary t (Relset.add r s') in
  let width = Array.length cols and pw = Array.length parent.cols in
  let data = Array.make (rows * width) 0 in
  Array.iteri
    (fun k (rel, col) ->
      if rel = r then begin
        let keys = port_keys t r col in
        for i = 0 to rows - 1 do
          data.((i * width) + k) <- keys.(positions.(i))
        done
      end
      else begin
        let src = pos_in parent.cols (rel, col) in
        for i = 0 to rows - 1 do
          data.((i * width) + k) <- parent.data.((tuples.(i) * pw) + src)
        done
      end)
    cols;
  { cols; data; rows; scale }

(* The sub-join of the connected set [s], memoized in [memo] with every
   set it is built from: peel [Join_graph.removable] relations down to a
   single one, then join them back in. *)
let rec build t ?cap memo s =
  match Hashtbl.find_opt memo s with
  | Some j -> j
  | None ->
    let j =
      if Relset.cardinal s = 1 then
        join t ?cap Relset.empty unit_join (Relset.min_elt s)
      else begin
        let r = Join_graph.removable t.graph s in
        let s' = Relset.remove r s in
        join t ?cap s' (build t ?cap memo s') r
      end
    in
    Hashtbl.replace memo s j;
    j

(* Record the card of every sub-join the fallback holds, then release all
   but those [keep] accepts. *)
let release t ~keep =
  let drop =
    Hashtbl.fold
      (fun s j acc ->
        Hashtbl.replace t.cards s j.rows;
        if keep s then acc else s :: acc)
      t.tuples []
  in
  List.iter (Hashtbl.remove t.tuples) drop

(* ---- public interface ---- *)

let check_set who t s =
  if Relset.is_empty s then invalid_arg (who ^ ": empty set");
  if not (Join_graph.is_connected t.graph s) then
    invalid_arg (who ^ ": disconnected set")

let compute_card t s =
  if t.tree then begin
    let card = int_of_float (Float.round (card_tree t s)) in
    Hashtbl.replace t.cards s card;
    card
  end
  else begin
    let j = build t t.tuples s in
    release t ~keep:(fun s -> Relset.cardinal s = 1);
    j.rows
  end

let true_card t s =
  check_set "Oracle.true_card" t s;
  match Hashtbl.find_opt t.cards s with
  | Some card -> card
  | None -> compute_card t s

let sub_join t ?cap memo s =
  check_set "Oracle.sub_join" t s;
  build t ?cap memo s

let scaled_rows j = float_of_int j.rows *. j.scale

let ensure_up_to t size =
  if size > t.ensured then begin
    (* [connected_subsets] is ordered by size: the fallback builds each
       level from the one below and releases older levels as it goes. *)
    let level = ref 1 in
    List.iter
      (fun s ->
        let k = Relset.cardinal s in
        if k > size then ()
        else if t.tree then begin
          if not (Hashtbl.mem t.cards s) then ignore (compute_card t s)
        end
        else begin
          if k > !level then begin
            let last = !level in
            release t ~keep:(fun s' -> Relset.cardinal s' = last);
            level := k
          end;
          ignore (build t t.tuples s)
        end)
      (Join_graph.connected_subsets t.graph);
    release t ~keep:(fun s -> Relset.cardinal s = 1);
    (* The cards are what callers need; the message maps, port keys and
       key indexes can be rebuilt on demand and would otherwise pin tens
       of MB per query. *)
    Hashtbl.reset t.msg_single_memo;
    Hashtbl.reset t.msg_set_memo;
    Hashtbl.reset t.port_keys;
    Hashtbl.reset t.key_index;
    t.ensured <- size
  end

let uses_tree_engine t = t.tree
