module Relset = Rdb_util.Relset
module Histogram = Rdb_stats.Histogram
module Mcv = Rdb_stats.Mcv
module Col_stats = Rdb_stats.Col_stats
module Analyze = Rdb_stats.Analyze
module Db_stats = Rdb_stats.Db_stats
module Predicate = Rdb_query.Predicate
module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Selectivity = Rdb_card.Selectivity
module Join_sel = Rdb_card.Join_sel
module Oracle = Rdb_card.Oracle
module Estimator = Rdb_card.Estimator
module Estimate_log = Rdb_card.Estimate_log

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---- Selectivity ---- *)

let stats_of_ints ints =
  let schema = Schema.make [ { Schema.name = "c"; ty = Value.Ty_int } ] in
  let t = Table.create ~name:"s" ~schema [| Column.Ints (Array.of_list ints) |] in
  Analyze.column t 0

let arbitrary_pred =
  QCheck.oneof
    [
      QCheck.map (fun v -> Predicate.Cmp (Predicate.Eq, Value.Int v)) QCheck.(int_range 0 50);
      QCheck.map (fun v -> Predicate.Cmp (Predicate.Lt, Value.Int v)) QCheck.(int_range 0 50);
      QCheck.map (fun v -> Predicate.Cmp (Predicate.Ge, Value.Int v)) QCheck.(int_range 0 50);
      QCheck.map (fun (a, b) -> Predicate.Between (Int.min a b, Int.max a b))
        QCheck.(pair (int_range 0 50) (int_range 0 50));
      QCheck.always Predicate.Is_null;
      QCheck.always Predicate.Is_not_null;
    ]

let prop_selectivity_in_unit =
  QCheck.Test.make ~name:"selectivity in [0,1]" ~count:500
    QCheck.(pair (list_of_size (Gen.int_range 1 100) (int_range 0 50)) arbitrary_pred)
    (fun (ints, p) ->
      let s = Selectivity.of_pred (stats_of_ints ints) p in
      s >= 0.0 && s <= 1.0)

let test_eq_selectivity_mcv () =
  (* 60% of the column is value 7; the MCV list must catch it. *)
  let ints = List.init 100 (fun i -> if i < 60 then 7 else i) in
  let s = Selectivity.of_pred (stats_of_ints ints) (Predicate.Cmp (Predicate.Eq, Value.Int 7)) in
  check (Alcotest.float 0.01) "hot value" 0.6 s

let test_eq_selectivity_rare () =
  let ints = List.init 1000 (fun i -> i) in
  let s = Selectivity.of_pred (stats_of_ints ints) (Predicate.Cmp (Predicate.Eq, Value.Int 5)) in
  check Alcotest.bool "about 1/1000" true (s > 0.0005 && s < 0.002)

(* A repeated IN-list value matches its rows once: IN (v, v, v) is exactly
   = v, for an MCV, a rare value and a value absent from the column. *)
let test_in_list_duplicates () =
  let ints = List.init 100 (fun i -> if i < 30 then 7 else i) in
  let st = stats_of_ints ints in
  List.iter
    (fun i ->
      let v = Value.Int i in
      check (Alcotest.float 0.0)
        (Printf.sprintf "IN (%d, %d, %d) = (= %d)" i i i i)
        (Selectivity.of_pred st (Predicate.Cmp (Predicate.Eq, v)))
        (Selectivity.of_pred st (Predicate.In_list [ v; v; v ])))
    [ 7; 50; 1000 ]

let test_range_selectivity () =
  let ints = List.init 1000 (fun i -> i) in
  let s =
    Selectivity.of_pred (stats_of_ints ints)
      (Predicate.Cmp (Predicate.Lt, Value.Int 500))
  in
  check Alcotest.bool "about half" true (Float.abs (s -. 0.5) < 0.05)

let test_like_selectivity_uses_mcvs () =
  let strs =
    List.concat
      [
        List.init 40 (fun _ -> Value.Str "abc");
        List.init 60 (fun i -> Value.Str (Printf.sprintf "zq%d" i));
      ]
  in
  let stats =
    {
      (Col_stats.trivial ~row_count:100) with
      Col_stats.n_distinct = 61;
      mcv = Mcv.build strs;
    }
  in
  let s =
    Selectivity.of_pred stats (Predicate.Like (Predicate.Prefix "ab"))
  in
  check Alcotest.bool "catches hot mcv" true (s >= 0.4)

let test_independence_product () =
  let ints = List.init 100 Fun.id in
  let st = stats_of_ints ints in
  let p1 = Predicate.Cmp (Predicate.Lt, Value.Int 50) in
  let p2 = Predicate.Cmp (Predicate.Ge, Value.Int 0) in
  let combined = Selectivity.of_preds [ st; st ] [ p1; p2 ] in
  let expected = Selectivity.of_pred st p1 *. Selectivity.of_pred st p2 in
  check (Alcotest.float 1e-9) "product rule" expected combined

(* ---- Join_sel ---- *)

let test_join_sel_uniform_keys () =
  (* Unique keys both sides: selectivity ~ 1/n. *)
  let s1 = stats_of_ints (List.init 1000 Fun.id) in
  let s2 = stats_of_ints (List.init 500 Fun.id) in
  let sel = Join_sel.eq_join s1 s2 in
  check Alcotest.bool "about 1/1000" true (sel > 0.0005 && sel < 0.002)

let prop_join_sel_in_unit =
  QCheck.Test.make ~name:"join selectivity in [0,1]" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 80) (int_range 0 20))
        (list_of_size (Gen.int_range 1 80) (int_range 0 20)))
    (fun (a, b) ->
      let sel = Join_sel.eq_join (stats_of_ints a) (stats_of_ints b) in
      sel >= 0.0 && sel <= 1.0)

let test_join_sel_mcv_matching () =
  (* Both sides share a hot key: MCV matching multiplies the matched
     frequencies (0.5 x 0.3), far above the uniform 1/max(nd) guess --
     PostgreSQL's eqjoinsel_inner behaviour. *)
  let a = List.init 1000 (fun i -> if i < 500 then 1 else i mod 50) in
  let b = List.init 1000 (fun i -> if i < 300 then 1 else i mod 50) in
  let sel = Join_sel.eq_join (stats_of_ints a) (stats_of_ints b) in
  check Alcotest.bool "captures matched hot keys" true (sel > 0.1);
  let uniform = Join_sel.uniform ~nd1:50 ~nd2:50 in
  check Alcotest.bool "mcv-aware > uniform" true (sel > uniform)

(* ---- Oracle: tree engine vs executor, and vs materialization ---- *)

let small_catalog () = Rdb_imdb.Imdb_gen.generate ~scale:0.02 ()

let test_oracle_matches_execution () =
  let catalog = small_catalog () in
  let session = Rdb_core.Session.create catalog in
  Rdb_core.Session.analyze session;
  List.iter
    (fun name ->
      let q = Rdb_imdb.Job_queries.find catalog name in
      let prepared = Rdb_core.Session.prepare session q in
      let plan, _, _ =
        Rdb_core.Session.plan prepared ~mode:Estimator.Default
      in
      let res = Rdb_core.Session.execute prepared plan in
      let oracle = Rdb_core.Session.oracle prepared in
      check Alcotest.int
        (name ^ " full-set card")
        res.Rdb_exec.Executor.out_rows
        (Oracle.true_card oracle (Relset.full (Query.n_rels q))))
    [ "1a"; "2a"; "4b"; "6d"; "8c"; "18a" ]

let test_oracle_node_cards_match_execution () =
  (* Every per-node actual row count observed during execution must equal
     the oracle's prediction for that node's relation set. *)
  let catalog = small_catalog () in
  let session = Rdb_core.Session.create catalog in
  Rdb_core.Session.analyze session;
  let q = Rdb_imdb.Job_queries.find catalog "16b" in
  let prepared = Rdb_core.Session.prepare session q in
  let plan, _, _ = Rdb_core.Session.plan prepared ~mode:Estimator.Default in
  let res = Rdb_core.Session.execute prepared plan in
  let oracle = Rdb_core.Session.oracle prepared in
  List.iter
    (fun (obs : Rdb_exec.Executor.node_obs) ->
      check Alcotest.int "node actual = oracle"
        obs.Rdb_exec.Executor.obs_actual
        (Oracle.true_card oracle obs.Rdb_exec.Executor.obs_set))
    res.Rdb_exec.Executor.observations

let test_oracle_tree_engine_used () =
  let catalog = small_catalog () in
  let q = Rdb_imdb.Job_queries.find catalog "33a" in
  let oracle = Oracle.create catalog q in
  check Alcotest.bool "JOB queries use the tree engine" true
    (Oracle.uses_tree_engine oracle)

let test_oracle_fallback_on_cyclic_classes () =
  (* Join on two distinct column pairs -> two classes shared by the same
     relation pair -> cyclic class graph -> materialization engine. *)
  let schema =
    Schema.make
      [
        { Schema.name = "a"; ty = Value.Ty_int };
        { Schema.name = "b"; ty = Value.Ty_int };
      ]
  in
  let catalog = Catalog.create () in
  let mk name cells =
    Catalog.add_table catalog
      (Table.create ~name ~schema
         [|
           Column.Ints (Array.map fst cells);
           Column.Ints (Array.map snd cells);
         |])
  in
  mk "r1" [| (1, 1); (1, 2); (2, 2); (3, 3) |];
  mk "r2" [| (1, 1); (1, 2); (2, 2); (4, 4) |];
  let colref rel col = { Query.rel; col } in
  let q =
    {
      Query.name = "cyclic";
      rels =
        [| { Query.alias = "x"; table = "r1" }; { Query.alias = "y"; table = "r2" } |];
      preds = [];
      edges =
        [
          { Query.l = colref 0 0; r = colref 1 0 };
          { Query.l = colref 0 1; r = colref 1 1 };
        ];
      select = [ Query.Count_star ];
    }
  in
  let oracle = Oracle.create catalog q in
  check Alcotest.bool "fallback engine" false (Oracle.uses_tree_engine oracle);
  (* brute force: pairs with equal (a,b) on both sides *)
  check Alcotest.int "cyclic-class card" 3
    (Oracle.true_card oracle (Relset.full 2))

(* The fallback engine against the brute-force Naive evaluator: a
   generated query gets a second edge, on another pair of int columns that
   share a value, between the two relations of one of its edges. The pair
   then shares two join classes, so the class graph has a cycle. *)
let gen_catalog = lazy (small_catalog ())

let with_second_edge catalog prng (q : Query.t) =
  let table (cr : Query.colref) =
    Catalog.table_exn catalog q.Query.rels.(cr.Query.rel).Query.table
  in
  let other_int_cols (cr : Query.colref) =
    let tbl = table cr in
    List.filter_map
      (fun c ->
        match Table.column tbl c with
        | Column.Ints cells when c <> cr.Query.col -> Some (c, cells)
        | Column.Ints _ | Column.Strs _ -> None)
      (List.init (Schema.arity (Table.schema tbl)) Fun.id)
  in
  let overlap a b =
    let seen = Hashtbl.create (Array.length a) in
    Array.iter
      (fun v -> if v <> Column.null_int then Hashtbl.replace seen v ())
      a;
    Array.exists (Hashtbl.mem seen) b
  in
  let pairs =
    List.concat_map
      (fun { Query.l; r } ->
        List.concat_map
          (fun (cl, a) ->
            List.filter_map
              (fun (cr, b) ->
                if overlap a b then
                  Some
                    {
                      Query.l = { l with Query.col = cl };
                      r = { r with Query.col = cr };
                    }
                else None)
              (other_int_cols r))
          (other_int_cols l))
      q.Query.edges
  in
  match pairs with
  | [] -> None
  | _ ->
    let e = List.nth pairs (Rdb_util.Prng.int prng (List.length pairs)) in
    Some { q with Query.edges = q.Query.edges @ [ e ] }

let prop_fallback_matches_naive =
  QCheck.Test.make ~name:"fallback engine = Naive on every connected subset"
    ~count:40 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let catalog = Lazy.force gen_catalog in
      let g = Rdb_verify.Query_gen.create ~catalog in
      let prng = Rdb_util.Prng.create seed in
      (* Draw until a query has an edge whose ends carry another pair of
         int columns that share a value. *)
      let rec draw i =
        let name = Printf.sprintf "c%d_%d" seed i in
        let q = Rdb_verify.Query_gen.gen g prng ~name in
        match with_second_edge catalog prng q with
        | Some q -> q
        | None -> draw (i + 1)
      in
      let q = draw 0 in
      let oracle = Oracle.create catalog q in
      if Oracle.uses_tree_engine oracle then
        QCheck.Test.fail_reportf "%s: class graph still a tree" q.Query.name;
      (* one oracle counts on demand, the other level by level *)
      let swept = Oracle.create catalog q in
      Oracle.ensure_up_to swept (Query.n_rels q);
      List.for_all
        (fun s ->
          let want = Rdb_exec.Naive.count ~catalog q s in
          let got = Oracle.true_card oracle s
          and got' = Oracle.true_card swept s in
          (got = want && got' = want)
          || QCheck.Test.fail_reportf
               "%s: subset {%s}: oracle %d (swept %d), naive %d" q.Query.name
               (String.concat "," (List.map string_of_int (Relset.to_list s)))
               got got' want)
        (Join_graph.connected_subsets (Join_graph.make q)))

let test_oracle_rejects_bad_sets () =
  let catalog = small_catalog () in
  let q = Rdb_imdb.Job_queries.find catalog "6d" in
  let oracle = Oracle.create catalog q in
  Alcotest.check_raises "empty" (Invalid_argument "Oracle.true_card: empty set")
    (fun () -> ignore (Oracle.true_card oracle Relset.empty));
  (* relation order in 6d: t, mk, k, ci, n; k and n share no edge *)
  let js = Rdb_card.Join_sample.create ~sample_size:64 oracle in
  Alcotest.check_raises "sampled, disconnected"
    (Invalid_argument "Oracle.sub_join: disconnected set")
    (fun () ->
      ignore (Rdb_card.Join_sample.card js (Relset.of_list [ 2; 4 ])))

let test_oracle_base_rows () =
  let catalog = small_catalog () in
  (* keyword pred on 6d restricts k to exactly one row *)
  let q = Rdb_imdb.Job_queries.find catalog "6d" in
  let oracle = Oracle.create catalog q in
  (* relation order in 6d: t, mk, k, ci, n *)
  check Alcotest.int "k filtered to one row" 1 (Oracle.base_rows oracle 2)

(* ---- Estimator ---- *)

let with_lab f =
  let catalog = small_catalog () in
  let session = Rdb_core.Session.create catalog in
  Rdb_core.Session.analyze session;
  f catalog session

let test_estimator_perfect_matches_oracle () =
  with_lab (fun catalog session ->
      let q = Rdb_imdb.Job_queries.find catalog "6d" in
      let prepared = Rdb_core.Session.prepare session q in
      let oracle = Rdb_core.Session.oracle prepared in
      Oracle.ensure_up_to oracle 3;
      let est =
        Estimator.create ~mode:(Estimator.Perfect 3) ~catalog
          ~stats:(Rdb_core.Session.stats session) ~oracle q
      in
      let graph = Join_graph.make q in
      List.iter
        (fun s ->
          if Relset.cardinal s <= 3 then
            check (Alcotest.float 0.5) "perfect-3 exact on small sets"
              (float_of_int (Oracle.true_card oracle s))
              (Estimator.card est s))
        (Join_graph.connected_subsets graph))

let test_estimator_default_misestimates_skew () =
  (* Needs enough keywords that the uniformity assumption is badly wrong. *)
  let catalog = Rdb_imdb.Imdb_gen.generate ~scale:0.1 () in
  let session = Rdb_core.Session.create catalog in
  Rdb_core.Session.analyze session;
  (fun catalog session ->
      (* The planted hot keyword must be underestimated by the default
         estimator across the mk-k join: the paper's core phenomenon. *)
      let q = Rdb_imdb.Job_queries.find catalog "6d" in
      let prepared = Rdb_core.Session.prepare session q in
      let oracle = Rdb_core.Session.oracle prepared in
      let est =
        Estimator.create ~mode:Estimator.Default ~catalog
          ~stats:(Rdb_core.Session.stats session) ~oracle q
      in
      (* rels: t=0, mk=1, k=2, ci=3, n=4; {mk,k} is connected. *)
      let s = Relset.of_list [ 1; 2 ] in
      let estimate = Estimator.card est s in
      let actual = float_of_int (Oracle.true_card oracle s) in
      check Alcotest.bool "underestimated by > 10x" true
        (actual /. estimate > 10.0))
    catalog session

let test_estimator_overrides () =
  with_lab (fun catalog session ->
      let q = Rdb_imdb.Job_queries.find catalog "6d" in
      let overrides = Hashtbl.create 4 in
      let s = Relset.of_list [ 1; 2 ] in
      Hashtbl.replace overrides s 12345.0;
      let est =
        Estimator.create
          ~mode:(Estimator.Feedback (Hashtbl.find_opt overrides)) ~catalog
          ~stats:(Rdb_core.Session.stats session) q
      in
      check (Alcotest.float 1e-9) "pinned" 12345.0 (Estimator.card est s))

let test_estimator_memoizes_and_logs () =
  with_lab (fun catalog session ->
      let q = Rdb_imdb.Job_queries.find catalog "6d" in
      let log = Estimate_log.create () in
      let est =
        Estimator.create ~log ~mode:Estimator.Default ~catalog
          ~stats:(Rdb_core.Session.stats session) q
      in
      let s = Relset.of_list [ 0; 1 ] in
      let v1 = Estimator.card est s in
      let v2 = Estimator.card est s in
      check (Alcotest.float 1e-9) "memoized" v1 v2;
      check Alcotest.int "logged once" 1 (Estimate_log.count log ~size:2))

let test_estimator_requires_oracle_for_perfect () =
  with_lab (fun catalog session ->
      let q = Rdb_imdb.Job_queries.find catalog "6d" in
      Alcotest.check_raises "perfect without oracle"
        (Invalid_argument "Estimator.create: perfect modes require an oracle")
        (fun () ->
          ignore
            (Estimator.create
               ~mode:(Estimator.Perfect (Rdb_query.Query.n_rels q)) ~catalog
               ~stats:(Rdb_core.Session.stats session) q)))

let prop_estimator_cards_at_least_one =
  QCheck.Test.make ~name:"estimates >= 1 row" ~count:20
    QCheck.(int_range 0 112)
    (fun idx ->
      let catalog = small_catalog () in
      let session = Rdb_core.Session.create catalog in
      Rdb_core.Session.analyze session;
      let q = List.nth (Rdb_imdb.Job_queries.all catalog) idx in
      let est =
        Estimator.create ~mode:Estimator.Default ~catalog
          ~stats:(Rdb_core.Session.stats session) q
      in
      let graph = Join_graph.make q in
      List.for_all
        (fun s -> Estimator.card est s >= 1.0)
        (List.filteri (fun i _ -> i < 50) (Join_graph.connected_subsets graph)))


(* ---- Join_sample ---- *)

let test_join_sample_exact_when_small () =
  (* With a sample size far above every sub-join, sampling is exact. *)
  let catalog = small_catalog () in
  let session = Rdb_core.Session.create catalog in
  Rdb_core.Session.analyze session;
  let q = Rdb_imdb.Job_queries.find catalog "1a" in
  let prepared = Rdb_core.Session.prepare session q in
  let oracle = Rdb_core.Session.oracle prepared in
  let js = Rdb_card.Join_sample.create ~sample_size:1_000_000 oracle in
  let graph = Join_graph.make q in
  List.iter
    (fun set ->
      check (Alcotest.float 0.5) "sampling exact when uncapped"
        (float_of_int (Oracle.true_card oracle set))
        (Rdb_card.Join_sample.card js set))
    (Join_graph.connected_subsets graph)

let test_join_sample_ballpark_when_capped () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~scale:0.1 () in
  let session = Rdb_core.Session.create catalog in
  Rdb_core.Session.analyze session;
  let q = Rdb_imdb.Job_queries.find catalog "6d" in
  let prepared = Rdb_core.Session.prepare session q in
  let oracle = Rdb_core.Session.oracle prepared in
  let js = Rdb_card.Join_sample.create ~sample_size:256 oracle in
  (* the skew-hit pair {mk, k}: sampling must land within ~4x where the
     default estimator is off by orders of magnitude *)
  let s = Relset.of_list [ 1; 2 ] in
  let actual = float_of_int (Oracle.true_card oracle s) in
  let sampled = Rdb_card.Join_sample.card js s in
  check Alcotest.bool
    (Printf.sprintf "sampled %.0f within 4x of actual %.0f" sampled actual)
    true
    (Rdb_util.Stat_utils.q_error ~est:(Float.max 1.0 sampled) ~actual <= 4.0)

let test_estimator_sampling_mode () =
  let catalog = small_catalog () in
  let session = Rdb_core.Session.create catalog in
  Rdb_core.Session.analyze session;
  let q = Rdb_imdb.Job_queries.find catalog "6d" in
  let js =
    Rdb_card.Join_sample.create ~sample_size:512 (Oracle.create catalog q)
  in
  let est =
    Estimator.create ~mode:(Estimator.Sampling js) ~catalog
      ~stats:(Rdb_core.Session.stats session) q
  in
  let v = Estimator.card est (Relset.of_list [ 0; 1 ]) in
  check Alcotest.bool "sampling mode produces estimates" true (v >= 1.0)

(* ---- group statistics flow through the estimator ---- *)

let test_estimator_uses_group_stats () =
  let n = 2000 in
  let a = Array.init n (fun i -> i mod 8) in
  let b = Array.map (fun v -> v mod 4) a in
  let catalog = Catalog.create () in
  Catalog.add_table catalog
    (Table.create ~name:"corr"
       ~schema:
         (Schema.make
            [
              { Schema.name = "a"; ty = Value.Ty_int };
              { Schema.name = "b"; ty = Value.Ty_int };
            ])
       [| Column.Ints a; Column.Ints b |]);
  let stats = Db_stats.create () in
  Analyze.all catalog stats;
  let colref rel col = { Query.rel; col } in
  let q =
    {
      Query.name = "g";
      rels = [| { Query.alias = "c"; table = "corr" } |];
      preds =
        [
          { Query.target = colref 0 0; p = Predicate.Cmp (Predicate.Eq, Value.Int 5) };
          { Query.target = colref 0 1; p = Predicate.Cmp (Predicate.Eq, Value.Int 1) };
        ];
      edges = [];
      select = [ Query.Count_star ];
    }
  in
  let card_with stats =
    let est = Estimator.create ~mode:Estimator.Default ~catalog ~stats q in
    Estimator.base_card est 0
  in
  let independent = card_with stats in
  Db_stats.set_group stats ~table:"corr"
    (Rdb_stats.Group_stats.build (Catalog.table_exn catalog "corr") 0 1);
  let grouped = card_with stats in
  (* a=5 implies b=1: true cardinality n/8; independence says n/32 *)
  check Alcotest.bool "independence underestimates" true (independent < 100.0);
  check (Alcotest.float 5.0) "group stats exact" (float_of_int (n / 8)) grouped

(* ---- Estimate_log ---- *)

let test_estimate_log () =
  let log = Estimate_log.create () in
  Estimate_log.record log ~size:2;
  Estimate_log.record log ~size:2;
  Estimate_log.record log ~size:5;
  check Alcotest.int "count 2" 2 (Estimate_log.count log ~size:2);
  check Alcotest.int "total" 3 (Estimate_log.total log);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "counts" [ (2, 2); (5, 1) ] (Estimate_log.counts log);
  let into = Estimate_log.create () in
  Estimate_log.add_into log ~into;
  Estimate_log.add_into log ~into;
  check Alcotest.int "merged" 6 (Estimate_log.total into)

(* ---- Oracle.Msg_map against a Hashtbl model ---- *)

module Msg_map = Oracle.Msg_map

type map_op = Add of int * float | Set of int * float

(* Keys mix small ints, negatives and multiples of large powers of two
   (equal in their low bits, so their home slots collide); a few hundred
   operations push a 16-slot map through several doublings. *)
let gen_key =
  QCheck.Gen.(
    oneof
      [
        int_range (-50) 50;
        map (fun k -> k lsl 16) (int_range (-40) 40);
        map (fun k -> k lsl 32) (int_range (-40) 40);
        map (fun k -> (k lsl 20) + 7) (int_range 0 40);
        int_range (-1_000_000) 1_000_000;
      ])

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 600)
      (let* k = gen_key in
       let* w = float_range 1.0 1e6 in
       oneofl [ Add (k, w); Set (k, w) ]))

let prop_msg_map_matches_hashtbl =
  QCheck.Test.make ~name:"msg_map = Hashtbl model" ~count:300
    (QCheck.make gen_ops)
    (fun ops ->
      let m = Msg_map.create 0 and model = Hashtbl.create 16 in
      List.iter
        (function
          | Add (k, w) ->
            Msg_map.add m k w;
            Hashtbl.replace model k
              (w +. Option.value ~default:0.0 (Hashtbl.find_opt model k))
          | Set (k, w) ->
            Msg_map.set m k w;
            Hashtbl.replace model k w)
        ops;
      let find k =
        match Msg_map.slot m k with
        | -1 -> None
        | i -> Some (Msg_map.value m i)
      in
      let seen = Hashtbl.create 16 in
      Msg_map.iter
        (fun k w ->
          if Hashtbl.mem seen k then QCheck.Test.fail_reportf "key %d twice" k;
          Hashtbl.replace seen k w)
        m;
      Msg_map.length m = Hashtbl.length model
      && Hashtbl.length seen = Hashtbl.length model
      && Hashtbl.fold
           (fun k w ok ->
             ok
             && Option.equal Float.equal (find k) (Some w)
             && Option.equal Float.equal (Hashtbl.find_opt seen k) (Some w))
           model true
      && List.for_all
           (fun k -> Hashtbl.mem model k || find k = None)
           [ 0; 1; -1; 1 lsl 16; 1 lsl 32; 123_456_789; Column.null_int ])

let test_msg_map_null_key () =
  let m = Msg_map.create 4 in
  check Alcotest.int "NULL is never found" (-1) (Msg_map.slot m Column.null_int);
  Alcotest.check_raises "NULL cannot be added"
    (Invalid_argument "Oracle.Msg_map: NULL key") (fun () ->
      Msg_map.add m Column.null_int 1.0);
  Alcotest.check_raises "NULL cannot be set"
    (Invalid_argument "Oracle.Msg_map: NULL key") (fun () ->
      Msg_map.set m Column.null_int 1.0)

let () =
  Alcotest.run "rdb_card"
    [
      ( "selectivity",
        [
          Alcotest.test_case "eq via mcv" `Quick test_eq_selectivity_mcv;
          Alcotest.test_case "eq rare value" `Quick test_eq_selectivity_rare;
          Alcotest.test_case "IN list duplicates count once" `Quick
            test_in_list_duplicates;
          Alcotest.test_case "range via histogram" `Quick test_range_selectivity;
          Alcotest.test_case "like via mcvs" `Quick test_like_selectivity_uses_mcvs;
          Alcotest.test_case "independence product" `Quick test_independence_product;
          qtest prop_selectivity_in_unit;
        ] );
      ( "join_sel",
        [
          Alcotest.test_case "uniform keys" `Quick test_join_sel_uniform_keys;
          Alcotest.test_case "mcv matching" `Quick test_join_sel_mcv_matching;
          qtest prop_join_sel_in_unit;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "matches execution" `Quick test_oracle_matches_execution;
          Alcotest.test_case "node cards match execution" `Quick
            test_oracle_node_cards_match_execution;
          Alcotest.test_case "tree engine on JOB" `Quick test_oracle_tree_engine_used;
          Alcotest.test_case "fallback on cyclic classes" `Quick
            test_oracle_fallback_on_cyclic_classes;
          qtest prop_fallback_matches_naive;
          Alcotest.test_case "rejects bad sets" `Quick test_oracle_rejects_bad_sets;
          Alcotest.test_case "base rows" `Quick test_oracle_base_rows;
          Alcotest.test_case "msg_map NULL key" `Quick test_msg_map_null_key;
          qtest prop_msg_map_matches_hashtbl;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "perfect-(n) = oracle" `Quick
            test_estimator_perfect_matches_oracle;
          Alcotest.test_case "default misses planted skew" `Quick
            test_estimator_default_misestimates_skew;
          Alcotest.test_case "overrides pin estimates" `Quick test_estimator_overrides;
          Alcotest.test_case "memoizes and logs" `Quick test_estimator_memoizes_and_logs;
          Alcotest.test_case "perfect requires oracle" `Quick
            test_estimator_requires_oracle_for_perfect;
          qtest prop_estimator_cards_at_least_one;
        ] );
      ( "join_sample",
        [
          Alcotest.test_case "exact when uncapped" `Quick
            test_join_sample_exact_when_small;
          Alcotest.test_case "ballpark when capped" `Quick
            test_join_sample_ballpark_when_capped;
          Alcotest.test_case "estimator sampling mode" `Quick
            test_estimator_sampling_mode;
          Alcotest.test_case "estimator uses group stats" `Quick
            test_estimator_uses_group_stats;
        ] );
      ( "estimate_log",
        [ Alcotest.test_case "counting" `Quick test_estimate_log ] );
    ]
