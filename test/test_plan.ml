module Relset = Rdb_util.Relset
module Query = Rdb_query.Query
module Predicate = Rdb_query.Predicate
module Join_graph = Rdb_query.Join_graph
module Estimator = Rdb_card.Estimator
module Cost_model = Rdb_cost.Cost_model
module Plan = Rdb_plan.Plan
module Dpccp = Rdb_plan.Dpccp
module Search_space = Rdb_plan.Search_space
module Optimizer = Rdb_plan.Optimizer
module Explain = Rdb_plan.Explain

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---- random join-graph generator (shared with test_query style) ---- *)

let random_graph_query =
  let gen =
    QCheck.Gen.(
      int_range 2 8 >>= fun n ->
      let* extra =
        list_size (int_range 0 6) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      let* tree_parents = flatten_l (List.init (n - 1) (fun i -> int_range 0 i)) in
      return (n, tree_parents, extra))
  in
  QCheck.make gen

let query_of_graph (n, tree_parents, extra) =
  let colref rel col = { Query.rel; col } in
  let tree_edges =
    List.mapi
      (fun i parent -> { Query.l = colref (i + 1) 0; r = colref parent 1 })
      tree_parents
  in
  let extra_edges =
    List.filter_map
      (fun (a, b) ->
        if a = b then None else Some { Query.l = colref a 0; r = colref b 1 })
      extra
  in
  {
    Query.name = "rand";
    rels =
      Array.init n (fun i -> { Query.alias = Printf.sprintf "r%d" i; table = "t" });
    preds = [];
    edges = tree_edges @ extra_edges;
    select = [ Query.Count_star ];
  }

(* ---- Dpccp ---- *)

let brute_pair_count q =
  let g = Join_graph.make q in
  let n = Query.n_rels q in
  let sets =
    List.filter
      (fun s -> Join_graph.is_connected g s)
      (List.init ((1 lsl n) - 1) (fun m ->
           Relset.of_list
             (List.filter (fun i -> (m + 1) land (1 lsl i) <> 0) (List.init n Fun.id))))
  in
  let count = ref 0 in
  List.iter
    (fun s1 ->
      List.iter
        (fun s2 ->
          if
            Relset.is_empty (Relset.inter s1 s2)
            && Relset.compare s1 s2 < 0
            && Query.edges_between q s1 s2 <> []
          then incr count)
        sets)
    sets;
  !count

let prop_dpccp_pair_count =
  QCheck.Test.make ~name:"DPccp count = brute force" ~count:60
    random_graph_query (fun spec ->
      let q = query_of_graph spec in
      let g = Join_graph.make q in
      Dpccp.count_pairs g = brute_pair_count q)

let prop_dpccp_pairs_valid =
  QCheck.Test.make ~name:"DPccp pairs connected, disjoint, linked" ~count:60
    random_graph_query (fun spec ->
      let q = query_of_graph spec in
      let g = Join_graph.make q in
      let ok = ref true in
      Dpccp.iter_pairs g (fun s1 s2 ->
          if
            not
              (Join_graph.is_connected g s1
               && Join_graph.is_connected g s2
               && Relset.is_empty (Relset.inter s1 s2)
               && Query.edges_between q s1 s2 <> [])
          then ok := false);
      !ok)

let prop_dpccp_no_duplicates =
  QCheck.Test.make ~name:"DPccp pairs unique" ~count:60 random_graph_query
    (fun spec ->
      let q = query_of_graph spec in
      let g = Join_graph.make q in
      let seen = Hashtbl.create 64 in
      let dup = ref false in
      Dpccp.iter_pairs g (fun s1 s2 ->
          let key =
            if Relset.compare s1 s2 < 0 then (s1, s2) else (s2, s1)
          in
          if Hashtbl.mem seen key then dup := true;
          Hashtbl.add seen key ());
      not !dup)

let test_dpccp_chain_counts () =
  (* Chain of n relations has n(n-1)(n+1)/6 csg-cmp pairs. *)
  let chain n =
    query_of_graph (n, List.init (n - 1) Fun.id, [])
  in
  List.iter
    (fun n ->
      let expected = n * (n - 1) * (n + 1) / 6 in
      check Alcotest.int
        (Printf.sprintf "chain %d" n)
        expected
        (Dpccp.count_pairs (Join_graph.make (chain n))))
    [ 2; 3; 5; 8 ]

(* The search space as it was first built: the pairs consed onto a list,
   copied into a tuple array and sorted by the stdlib's [Array.sort] on
   [|s1 ∪ s2|]. The DP keeps the first strict minimum, so the order of
   equal-size pairs decides between equal-cost plans and must not move. *)
let reference_pairs g =
  let acc = ref [] in
  Dpccp.iter_pairs g (fun s1 s2 -> acc := (s1, s2) :: !acc);
  let pairs = Array.of_list !acc in
  let key (s1, s2) = Relset.cardinal (Relset.union s1 s2) in
  Array.sort (fun a b -> Int.compare (key a) (key b)) pairs;
  Array.to_list pairs

(* Every pair, sorted by union size, in the reference order. *)
let prop_search_space_sorted =
  QCheck.Test.make ~name:"sorted by union size" ~count:200 random_graph_query
    (fun spec ->
      let g = Join_graph.make (query_of_graph spec) in
      let space = Search_space.build g in
      let got = ref [] in
      Search_space.iter space (fun s1 s2 -> got := (s1, s2) :: !got);
      Search_space.n_pairs space = Dpccp.count_pairs g
      && List.rev !got = reference_pairs g)

(* ---- Optimizer on a concrete small database ---- *)

let small_db () =
  let schema cols = Schema.make cols in
  let int name = { Schema.name; ty = Value.Ty_int } in
  let cat = Catalog.create () in
  (* dim(id), fact(id, dim_id) with skewed dim_id *)
  let dim_n = 100 and fact_n = 2000 in
  Catalog.add_table cat
    (Table.create ~name:"dim" ~schema:(schema [ int "id" ])
       [| Column.Ints (Array.init dim_n (fun i -> i + 1)) |]);
  Catalog.add_table cat
    (Table.create ~name:"fact" ~schema:(schema [ int "id"; int "dim_id" ])
       [|
         Column.Ints (Array.init fact_n (fun i -> i + 1));
         Column.Ints (Array.init fact_n (fun i -> (i mod dim_n) + 1));
       |]);
  Catalog.add_index cat ~table:"dim" ~col:0;
  Catalog.add_index cat ~table:"fact" ~col:1;
  cat

let bind cat sql =
  match Rdb_sql.Binder.bind cat ~name:"q" (Rdb_sql.Parser.parse sql) with
  | Ok q -> q
  | Error e -> Alcotest.fail e

let plan_query cat q =
  let stats = Rdb_stats.Db_stats.create () in
  let catalog = cat in
  Rdb_stats.Analyze.all catalog stats;
  let estimator = Estimator.create ~mode:Estimator.Default ~catalog ~stats q in
  Optimizer.plan ~catalog ~estimator q

let test_optimizer_covers_all_relations () =
  let cat = small_db () in
  let q =
    bind cat "SELECT COUNT(*) FROM dim AS d, fact AS f WHERE f.dim_id = d.id"
  in
  let plan, stats = plan_query cat q in
  check Alcotest.bool "covers both" true
    (Relset.equal (Plan.rel_set plan) (Relset.full 2));
  check Alcotest.bool "considered pairs" true (stats.Optimizer.pairs_considered >= 1)

let test_optimizer_rejects_cartesian () =
  let cat = small_db () in
  let q = bind cat "SELECT COUNT(*) FROM dim AS d, fact AS f" in
  Alcotest.check_raises "cartesian"
    (Invalid_argument
       "Optimizer: join graph of q is disconnected (cartesian product); \
        components: {d} | {f}")
    (fun () -> ignore (plan_query cat q))

let test_optimizer_index_scan_for_selective_eq () =
  let cat = small_db () in
  let q =
    bind cat
      "SELECT COUNT(*) FROM dim AS d, fact AS f WHERE f.dim_id = d.id AND d.id = 7"
  in
  let plan, _ = plan_query cat q in
  let scans = Plan.scans plan in
  let dim_scan = List.find (fun s -> s.Plan.scan_rel = 0) scans in
  (match dim_scan.Plan.access with
   | Plan.Index_scan { key = 7; _ } -> ()
   | Plan.Index_scan _ | Plan.Seq_scan ->
     Alcotest.fail "expected index scan on dim.id = 7")

(* DP finds the cost-minimal plan: compare against exhaustive enumeration
   over all join orders/algorithms with the same cost model. *)
let exhaustive_best_cost ~catalog ~estimator (q : Query.t) =
  let cp = Cost_model.default in
  let graph = Join_graph.make q in
  let rec best s =
    if Relset.cardinal s = 1 then begin
      let rel = Relset.min_elt s in
      let table = Catalog.table_exn catalog q.Query.rels.(rel).Query.table in
      let preds = Query.preds_of_cols q rel in
      let seq =
        Cost_model.seq_scan cp
          ~rows:(float_of_int (Table.nrows table))
          ~npreds:(List.length preds)
      in
      let index_options =
        List.filter_map
          (fun (col, p) ->
            match p with
            | Predicate.Cmp (Predicate.Eq, Value.Int _)
              when Catalog.index catalog ~table:(Table.name table) ~col <> None ->
              let sel = Estimator.pred_selectivity estimator ~rel ~col p in
              let matches =
                Float.max 1.0 (Estimator.table_rows estimator rel *. sel)
              in
              Some (Cost_model.index_scan cp ~matches ~npreds:(List.length preds - 1))
            | _ -> None)
          preds
      in
      List.fold_left Float.min seq index_options
    end
    else begin
      let out = Estimator.card estimator s in
      let costs = ref infinity in
      Relset.iter_subsets s (fun s1 ->
          let s2 = Relset.diff s s1 in
          if
            (not (Relset.is_empty s2))
            && Join_graph.is_connected graph s1
            && Join_graph.is_connected graph s2
            && Query.edges_between q s1 s2 <> []
          then begin
            let c1 = best s1 and c2 = best s2 in
            let r1 = Estimator.card estimator s1
            and r2 = Estimator.card estimator s2 in
            let edges = Query.edges_between q s1 s2 in
            let hash = c1 +. c2 +. Cost_model.hash_join cp ~build:r2 ~probe:r1 ~out in
            let nl = c1 +. c2 +. Cost_model.nested_loop cp ~outer:r1 ~inner:r2 ~out in
            let inl =
              if Relset.cardinal s2 = 1 then begin
                let inner_rel = Relset.min_elt s2 in
                let tname = q.Query.rels.(inner_rel).Query.table in
                let indexed =
                  List.exists
                    (fun e ->
                      Catalog.index catalog ~table:tname ~col:e.Query.r.Query.col
                      <> None)
                    edges
                in
                if indexed then
                  let npreds =
                    List.length (Query.preds_of_cols q inner_rel)
                    + List.length edges - 1
                  in
                  [ c1 +. Cost_model.index_nested_loop cp ~outer:r1 ~out ~npreds ]
                else []
              end
              else []
            in
            List.iter (fun c -> if c < !costs then costs := c) (hash :: nl :: inl)
          end);
      !costs
    end
  in
  best (Relset.full (Query.n_rels q))

let test_optimizer_optimal_vs_exhaustive () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~scale:0.02 () in
  let stats = Rdb_stats.Db_stats.create () in
  Rdb_stats.Analyze.all catalog stats;
  List.iter
    (fun name ->
      let q = Rdb_imdb.Job_queries.find catalog name in
      let estimator = Estimator.create ~mode:Estimator.Default ~catalog ~stats q in
      let plan, _ = Optimizer.plan ~catalog ~estimator q in
      let exhaustive = exhaustive_best_cost ~catalog ~estimator q in
      check (Alcotest.float 0.001) (name ^ " optimal") exhaustive (Plan.cost plan))
    [ "1a"; "1b"; "2a"; "3b"; "4a"; "5c"; "6d" ]

(* ---- Explain ---- *)

let test_explain_renders () =
  let cat = small_db () in
  let q =
    bind cat
      "SELECT COUNT(*) FROM dim AS d, fact AS f WHERE f.dim_id = d.id AND d.id = 3"
  in
  let plan, _ = plan_query cat q in
  let text = Explain.render q plan in
  check Alcotest.bool "mentions scan" true (String.length text > 20);
  let with_actuals = Explain.render ~actuals:(fun _ -> Some 42) q plan in
  check Alcotest.bool "longer with actuals" true
    (String.length with_actuals > String.length text)

let () =
  Alcotest.run "rdb_plan"
    [
      ( "dpccp",
        [
          Alcotest.test_case "chain counts" `Quick test_dpccp_chain_counts;
          qtest prop_dpccp_pair_count;
          qtest prop_dpccp_pairs_valid;
          qtest prop_dpccp_no_duplicates;
        ] );
      ( "search_space",
        [ qtest prop_search_space_sorted ] );
      ( "optimizer",
        [
          Alcotest.test_case "covers all relations" `Quick
            test_optimizer_covers_all_relations;
          Alcotest.test_case "rejects cartesian" `Quick test_optimizer_rejects_cartesian;
          Alcotest.test_case "index scan for selective eq" `Quick
            test_optimizer_index_scan_for_selective_eq;
          Alcotest.test_case "optimal vs exhaustive" `Slow
            test_optimizer_optimal_vs_exhaustive;
        ] );
      ( "explain",
        [ Alcotest.test_case "renders" `Quick test_explain_renders ] );
    ]
