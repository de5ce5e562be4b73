(* Golden true and sampled cardinalities: for every JOB query at scale
   0.02, the number of connected relation subsets and the MD5 of the
   oracle's true_card of each, in Join_graph.connected_subsets order; then
   the MD5 of Join_sample.card ("%h") at sample size 128 over every
   connected subset, and at size 512 over those of at most 4 relations,
   each with its subset count. The test rule diffs this output against
   oracle_cards.expected, so any change to the oracle's counting or to the
   sampler's draws shows up as a changed digest. *)

module Query = Rdb_query.Query
module Relset = Rdb_util.Relset
module Join_graph = Rdb_query.Join_graph
module Oracle = Rdb_card.Oracle
module Join_sample = Rdb_card.Join_sample

let digest strings = Digest.to_hex (Digest.string (String.concat " " strings))

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
        (digest cards);
      List.iter
        (fun (size, max_rels) ->
          let js = Join_sample.create ~sample_size:size oracle in
          let sets =
            List.filter (fun s -> Relset.cardinal s <= max_rels) subsets
          in
          let cards =
            List.map
              (fun s -> Printf.sprintf "%h" (Join_sample.card js s))
              sets
          in
          Printf.printf "%s sample-%d %d %s\n" q.Query.name size
            (List.length sets) (digest cards))
        [ (128, max_int); (512, 4) ])
    (Rdb_imdb.Job_queries.all catalog)
