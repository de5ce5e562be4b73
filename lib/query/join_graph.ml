module Relset = Rdb_util.Relset

type t = { n : int; adj : Relset.t array }

let make (q : Query.t) =
  let n = Query.n_rels q in
  let adj = Array.make n Relset.empty in
  List.iter
    (fun { Query.l; r } ->
      if l.Query.rel <> r.Query.rel then begin
        adj.(l.Query.rel) <- Relset.add r.Query.rel adj.(l.Query.rel);
        adj.(r.Query.rel) <- Relset.add l.Query.rel adj.(r.Query.rel)
      end)
    q.Query.edges;
  { n; adj }

let n t = t.n

(* A bit loop: [Relset.fold] would allocate per call, once per subgraph. *)
let neighbors t (s : Relset.t) =
  let acc = ref Relset.empty and i = ref 0 in
  while (s :> int) lsr !i <> 0 do
    if ((s :> int) lsr !i) land 1 = 1 then acc := Relset.union t.adj.(!i) !acc;
    incr i
  done;
  Relset.diff !acc s

let is_connected t s =
  if Relset.is_empty s then false
  else begin
    let seed = Relset.singleton (Relset.min_elt s) in
    let rec grow frontier =
      let next = Relset.inter (Relset.union frontier (neighbors t frontier)) s in
      if Relset.equal next frontier then frontier else grow next
    in
    Relset.equal (grow seed) s
  end

let components t s =
  let rec grow frontier =
    let next = Relset.inter (Relset.union frontier (neighbors t frontier)) s in
    if Relset.equal next frontier then frontier else grow next
  in
  let rec peel rest acc =
    if Relset.is_empty rest then List.rev acc
    else
      let c = grow (Relset.singleton (Relset.min_elt rest)) in
      peel (Relset.diff rest c) (c :: acc)
  in
  peel s []

let removable t s =
  let rec scan = function
    | [] -> invalid_arg "Join_graph.removable: no removable relation"
    | i :: rest ->
      let s' = Relset.remove i s in
      if Relset.cardinal s = 1 || is_connected t s' then i else scan rest
  in
  scan (List.rev (Relset.to_list s))

let rec iter_csg_rec t s x emit =
  let candidates = Relset.diff (neighbors t s) x in
  let x = Relset.union x candidates in
  let sub = ref candidates in
  while not (Relset.is_empty !sub) do
    let s2 = Relset.union s !sub in
    emit s2;
    iter_csg_rec t s2 x emit;
    sub := Relset.next_subset candidates !sub
  done

(* EnumerateCsg of Moerkotte & Neumann (DPccp): every connected subgraph is
   produced exactly once. *)
let iter_connected_subsets t f =
  for i = t.n - 1 downto 0 do
    let s = Relset.singleton i in
    f s;
    iter_csg_rec t s (Relset.below (i + 1)) f
  done

let connected_subsets t =
  let acc = ref [] in
  iter_connected_subsets t (fun s -> acc := s :: !acc);
  List.sort
    (fun a b ->
      match Int.compare (Relset.cardinal a) (Relset.cardinal b) with
      | 0 -> Relset.compare a b
      | d -> d)
    !acc

let count_by_size t =
  let counts = Array.make (t.n + 1) 0 in
  iter_connected_subsets t (fun s ->
      let k = Relset.cardinal s in
      counts.(k) <- counts.(k) + 1);
  counts

let to_dot (q : Query.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" q.Query.name);
  Array.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "  %s [label=\"%s (%s)\"];\n" r.Query.alias
           r.Query.alias r.Query.table))
    q.Query.rels;
  let seen = Hashtbl.create 16 in
  List.iter
    (fun { Query.l; r } ->
      let a = Int.min l.Query.rel r.Query.rel
      and b = Int.max l.Query.rel r.Query.rel in
      if not (Hashtbl.mem seen (a, b)) then begin
        Hashtbl.add seen (a, b) ();
        Buffer.add_string buf
          (Printf.sprintf "  %s -- %s;\n"
             (Query.rel_alias q l.Query.rel)
             (Query.rel_alias q r.Query.rel))
      end)
    q.Query.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
