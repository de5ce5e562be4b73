(* Golden true cardinalities: for every JOB query at scale 0.02, the number
   of connected relation subsets and the MD5 of the oracle's true_card of
   each, in Join_graph.connected_subsets order, one per line. The test
   rule diffs this output against oracle_cards.expected, so any change to
   the oracle's counting shows up as a changed digest. *)

module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Oracle = Rdb_card.Oracle

let () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~scale:0.02 () in
  List.iter
    (fun (q : Query.t) ->
      let oracle = Oracle.create catalog q in
      let subsets = Join_graph.connected_subsets (Join_graph.make q) in
      let cards =
        List.map (fun s -> string_of_int (Oracle.true_card oracle s)) subsets
      in
      Printf.printf "%s %d %s\n" q.Query.name (List.length subsets)
        (Digest.to_hex (Digest.string (String.concat " " cards))))
    (Rdb_imdb.Job_queries.all catalog)
