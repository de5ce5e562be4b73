module Union_find = Rdb_util.Union_find

type t = {
  class_of : (Query.colref, int) Hashtbl.t;
  members : (Query.colref * int) list;
  reprs : Query.colref array;  (* class -> smallest member *)
  redundant : int;
}

let make edges =
  (* Number the members in first-appearance order, then union them. *)
  let ids = Hashtbl.create 16 in
  let members = ref [] in
  let id cr =
    match Hashtbl.find_opt ids cr with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids cr i;
      members := cr :: !members;
      i
  in
  let pairs =
    List.map
      (fun { Query.l; r } ->
        let a = id l in
        (a, id r))
      edges
  in
  let uf = Union_find.create (Hashtbl.length ids) in
  let redundant =
    List.fold_left
      (fun acc (a, b) -> if Union_find.union uf a b then acc else acc + 1)
      0 pairs
  in
  (* A root is its class's smallest id, hence its first-appearing member,
     so classes are numbered in order of first appearance. *)
  let class_of_id = Array.make (Hashtbl.length ids) 0 in
  let reprs = ref [] and n_classes = ref 0 in
  let members =
    List.mapi
      (fun i cr ->
        let root = Union_find.find uf i in
        if root = i then begin
          class_of_id.(i) <- !n_classes;
          incr n_classes;
          reprs := cr :: !reprs
        end
        else class_of_id.(i) <- class_of_id.(root);
        (cr, class_of_id.(i)))
      (List.rev !members)
  in
  let reprs = Array.of_list (List.rev !reprs) in
  let class_of = Hashtbl.create 16 in
  List.iter
    (fun (cr, c) ->
      Hashtbl.replace class_of cr c;
      if compare cr reprs.(c) < 0 then reprs.(c) <- cr)
    members;
  { class_of; members; reprs; redundant }

let n_classes t = Array.length t.reprs
let members t = t.members
let class_of t cr = Hashtbl.find_opt t.class_of cr

let repr t cr =
  match class_of t cr with Some c -> t.reprs.(c) | None -> cr

let redundant t = t.redundant
