module Relset = Rdb_util.Relset
module Join_graph = Rdb_query.Join_graph

(* EnumerateCmp: all connected complements of [s1] that avoid the
   duplicate-suppression prefix, grown from [n]'s members high to low. *)
let iter_cmp graph s1 f =
  let x = Relset.union (Relset.below (Relset.min_elt s1 + 1)) s1 in
  let n = Relset.diff (Join_graph.neighbors graph s1) x in
  let emit s2 = f s1 s2 in
  for i = Join_graph.n graph - 1 downto 0 do
    if Relset.mem i n then begin
      let v = Relset.singleton i in
      emit v;
      let smaller_neighbors = Relset.inter n (Relset.below (i + 1)) in
      Join_graph.iter_csg_rec graph v (Relset.union x smaller_neighbors) emit
    end
  done

let iter_pairs graph f =
  let n = Join_graph.n graph in
  for i = n - 1 downto 0 do
    let v = Relset.singleton i in
    iter_cmp graph v f;
    Join_graph.iter_csg_rec graph v (Relset.below (i + 1)) (fun s1 ->
        iter_cmp graph s1 f)
  done

let count_pairs graph =
  let count = ref 0 in
  iter_pairs graph (fun _ _ -> incr count);
  !count
