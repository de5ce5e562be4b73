(* Golden sound bounds: for every JOB query and the first 40 generated
   queries (seed 424242) at scale 0.02 after ANALYZE, the number of
   connected relation subsets and the MD5 of Card_bound.interval of each,
   printed as "%h %h", in Join_graph.connected_subsets order, one query per
   line. The test rule diffs this output against bound_cards.expected, so
   no change to the bound propagation can silently move a float. *)

module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Session = Rdb_core.Session
module Card_bound = Rdb_verify.Card_bound
module Query_gen = Rdb_verify.Query_gen

let () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~scale:0.02 () in
  let session = Session.create catalog in
  Session.analyze session;
  let g = Query_gen.create ~catalog in
  let prng = Rdb_util.Prng.create 424242 in
  let generated =
    List.init 40 (fun i -> Query_gen.gen g prng ~name:(Printf.sprintf "g%03d" i))
  in
  List.iter
    (fun (q : Query.t) ->
      let ctx = Card_bound.create ~catalog ~stats:(Session.stats session) q in
      let subsets = Join_graph.connected_subsets (Join_graph.make q) in
      let bounds =
        List.map
          (fun s ->
            let lo, hi = Card_bound.interval ctx s in
            Printf.sprintf "%h %h" lo hi)
          subsets
      in
      Printf.printf "%s %d %s\n" q.Query.name (List.length subsets)
        (Digest.to_hex (Digest.string (String.concat "\n" bounds))))
    (Rdb_imdb.Job_queries.all catalog @ generated)
