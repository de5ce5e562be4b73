module Relset = Rdb_util.Relset
module Predicate = Rdb_query.Predicate
module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Eq_classes = Rdb_query.Eq_classes

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---- Predicate ---- *)

let test_pred_cmp () =
  let p = Predicate.Cmp (Predicate.Lt, Value.Int 5) in
  check Alcotest.bool "4 < 5" true (Predicate.eval p (Value.Int 4));
  check Alcotest.bool "5 < 5" false (Predicate.eval p (Value.Int 5));
  check Alcotest.bool "null never" false (Predicate.eval p Value.Null)

let test_pred_between_in () =
  let between = Predicate.Between (2, 4) in
  check Alcotest.bool "3 in [2,4]" true (Predicate.eval between (Value.Int 3));
  check Alcotest.bool "5 not in" false (Predicate.eval between (Value.Int 5));
  let inlist = Predicate.In_list [ Value.Int 1; Value.Str "x" ] in
  check Alcotest.bool "1 in list" true (Predicate.eval inlist (Value.Int 1));
  check Alcotest.bool "'x' in list" true (Predicate.eval inlist (Value.Str "x"));
  check Alcotest.bool "2 not in list" false (Predicate.eval inlist (Value.Int 2))

let test_pred_like () =
  let contains = Predicate.Like (Predicate.Contains "Tim") in
  check Alcotest.bool "middle" true (Predicate.eval contains (Value.Str "aTim_b"));
  check Alcotest.bool "absent" false (Predicate.eval contains (Value.Str "tom"));
  let prefix = Predicate.Like (Predicate.Prefix "ab") in
  check Alcotest.bool "prefix yes" true (Predicate.eval prefix (Value.Str "abc"));
  check Alcotest.bool "prefix no" false (Predicate.eval prefix (Value.Str "ba"));
  let suffix = Predicate.Like (Predicate.Suffix "yz") in
  check Alcotest.bool "suffix yes" true (Predicate.eval suffix (Value.Str "xyz"));
  check Alcotest.bool "suffix no" false (Predicate.eval suffix (Value.Str "zy"))

let test_pred_null_tests () =
  check Alcotest.bool "is_null on null" true (Predicate.eval Predicate.Is_null Value.Null);
  check Alcotest.bool "is_null on int" false (Predicate.eval Predicate.Is_null (Value.Int 0));
  check Alcotest.bool "is_not_null on str" true
    (Predicate.eval Predicate.Is_not_null (Value.Str ""))

let prop_eval_int_agrees =
  QCheck.Test.make ~name:"eval_int agrees with eval" ~count:500
    QCheck.(pair (int_range (-50) 50) (int_range (-50) 50))
    (fun (cell, bound) ->
      let preds =
        [
          Predicate.Cmp (Predicate.Eq, Value.Int bound);
          Predicate.Cmp (Predicate.Le, Value.Int bound);
          Predicate.Between (bound - 5, bound + 5);
          Predicate.Is_not_null;
        ]
      in
      List.for_all
        (fun p -> Predicate.eval_int p cell = Predicate.eval p (Value.Int cell))
        preds)

let prop_eval_str_agrees =
  QCheck.Test.make ~name:"eval_str agrees with eval" ~count:300
    QCheck.(pair small_string small_string)
    (fun (cell, pat) ->
      let preds =
        [
          Predicate.Cmp (Predicate.Eq, Value.Str pat);
          Predicate.Like (Predicate.Contains pat);
          Predicate.Like (Predicate.Prefix pat);
        ]
      in
      List.for_all
        (fun p -> Predicate.eval_str p cell = Predicate.eval p (Value.Str cell))
        preds)

let test_pred_to_sql () =
  check Alcotest.string "eq" "x = 3"
    (Predicate.to_sql ~col:"x" (Predicate.Cmp (Predicate.Eq, Value.Int 3)));
  check Alcotest.string "like" "x LIKE '%a%'"
    (Predicate.to_sql ~col:"x" (Predicate.Like (Predicate.Contains "a")))

(* ---- Query helpers ---- *)

(* A chain query t0 - t1 - t2 over synthetic tables. *)
let mk_catalog_and_query () =
  let schema =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.Ty_int };
        { Schema.name = "fk"; ty = Value.Ty_int };
      ]
  in
  let cat = Catalog.create () in
  List.iter
    (fun name ->
      Catalog.add_table cat
        (Table.create ~name ~schema
           [| Column.Ints [| 1; 2 |]; Column.Ints [| 1; 1 |] |]))
    [ "t0"; "t1"; "t2" ];
  let colref rel col = { Query.rel; col } in
  let q =
    {
      Query.name = "chain";
      rels =
        [|
          { Query.alias = "a"; table = "t0" };
          { Query.alias = "b"; table = "t1" };
          { Query.alias = "c"; table = "t2" };
        |];
      preds =
        [ { Query.target = colref 0 0; p = Predicate.Cmp (Predicate.Eq, Value.Int 1) } ];
      edges =
        [
          { Query.l = colref 0 0; r = colref 1 1 };
          { Query.l = colref 1 0; r = colref 2 1 };
        ];
      select = [ Query.Count_star ];
    }
  in
  (cat, q)

let test_query_accessors () =
  let _, q = mk_catalog_and_query () in
  check Alcotest.int "n_rels" 3 (Query.n_rels q);
  check Alcotest.int "preds of 0" 1 (Query.pred_counts q).(0);
  check Alcotest.int "preds of 1" 0 (Query.pred_counts q).(1);
  check Alcotest.string "alias" "b" (Query.rel_alias q 1)

let test_edges_between () =
  let _, q = mk_catalog_and_query () in
  let s0 = Relset.of_list [ 0 ] and s12 = Relset.of_list [ 1; 2 ] in
  let edges = Query.edges_between q s0 s12 in
  check Alcotest.int "one crossing edge" 1 (List.length edges);
  (match edges with
   | [ { Query.l; r } ] ->
     check Alcotest.int "oriented l in s0" 0 l.Query.rel;
     check Alcotest.int "r in s12" 1 r.Query.rel
   | _ -> Alcotest.fail "unexpected");
  check Alcotest.int "within" 2
    (List.length (Query.edges_within q (Relset.full 3)))

let test_validate_ok () =
  let cat, q = mk_catalog_and_query () in
  check Alcotest.bool "valid" true (Result.is_ok (Query.validate cat q))

let test_validate_errors () =
  let cat, q = mk_catalog_and_query () in
  let bad_col =
    { q with Query.preds = [ { Query.target = { Query.rel = 0; col = 9 }; p = Predicate.Is_null } ] }
  in
  check Alcotest.bool "bad column" true (Result.is_error (Query.validate cat bad_col));
  let dup =
    { q with Query.rels = Array.map (fun r -> { r with Query.alias = "x" }) q.Query.rels }
  in
  check Alcotest.bool "duplicate alias" true (Result.is_error (Query.validate cat dup))

(* ---- Join_graph ---- *)

let test_graph_connectivity () =
  let _, q = mk_catalog_and_query () in
  let g = Join_graph.make q in
  check Alcotest.bool "full connected" true (Join_graph.is_connected g (Relset.full 3));
  check Alcotest.bool "0,2 disconnected" false
    (Join_graph.is_connected g (Relset.of_list [ 0; 2 ]));
  check Alcotest.bool "singleton connected" true
    (Join_graph.is_connected g (Relset.of_list [ 1 ]));
  check Alcotest.bool "empty not connected" false
    (Join_graph.is_connected g Relset.empty)

let test_graph_chain_subsets () =
  let _, q = mk_catalog_and_query () in
  let g = Join_graph.make q in
  (* chain of 3: subsets {0},{1},{2},{01},{12},{012} *)
  check Alcotest.int "6 connected subsets" 6
    (List.length (Join_graph.connected_subsets g));
  let counts = Join_graph.count_by_size g in
  check Alcotest.int "three singletons" 3 counts.(1);
  check Alcotest.int "two pairs" 2 counts.(2);
  check Alcotest.int "one triple" 1 counts.(3)

let test_removable_keeps_connectivity () =
  let _, q = mk_catalog_and_query () in
  let g = Join_graph.make q in
  let s = Relset.full 3 in
  let r = Join_graph.removable g s in
  check Alcotest.bool "still connected" true
    (Join_graph.is_connected g (Relset.remove r s))

(* Random connected graph vs brute-force subset enumeration. *)
let random_graph_query =
  let gen =
    QCheck.Gen.(
      int_range 2 7 >>= fun n ->
      (* random spanning tree + random extra edges *)
      let* extra = list_size (int_range 0 5) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
      let* tree_parents =
        flatten_l (List.init (n - 1) (fun i -> int_range 0 i))
      in
      return (n, tree_parents, extra))
  in
  QCheck.make gen

let query_of_graph (n, tree_parents, extra) =
  let colref rel col = { Query.rel; col } in
  let tree_edges =
    List.mapi (fun i parent -> { Query.l = colref (i + 1) 0; r = colref parent 1 }) tree_parents
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
      Array.init n (fun i ->
          { Query.alias = Printf.sprintf "r%d" i; table = "t" });
    preds = [];
    edges = tree_edges @ extra_edges;
    select = [ Query.Count_star ];
  }

let brute_connected_subsets q =
  let g = Join_graph.make q in
  let n = Query.n_rels q in
  let acc = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    let s = Relset.of_list (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id)) in
    if Join_graph.is_connected g s then acc := s :: !acc
  done;
  List.sort Relset.compare !acc

let prop_connected_subsets_complete =
  QCheck.Test.make ~name:"EnumerateCsg = brute force" ~count:100
    random_graph_query (fun spec ->
      let q = query_of_graph spec in
      let g = Join_graph.make q in
      let enumerated =
        List.sort Relset.compare (Join_graph.connected_subsets g)
      in
      enumerated = brute_connected_subsets q)

let prop_removable_connectivity =
  QCheck.Test.make ~name:"removable keeps connectivity" ~count:100
    random_graph_query (fun spec ->
      let q = query_of_graph spec in
      let g = Join_graph.make q in
      List.for_all
        (fun s ->
          Relset.cardinal s = 1
          ||
          let r = Join_graph.removable g s in
          Join_graph.is_connected g (Relset.remove r s))
        (Join_graph.connected_subsets g))

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec scan i =
    if i + nl > hl then false
    else if String.sub hay i nl = needle then true
    else scan (i + 1)
  in
  scan 0

let test_to_dot () =
  let _, q = mk_catalog_and_query () in
  let dot = Join_graph.to_dot q in
  check Alcotest.bool "mentions edge" true (contains ~needle:"a -- b" dot);
  check Alcotest.bool "mentions table" true (contains ~needle:"t0" dot)

(* ---- Eq_classes ---- *)

let test_eq_classes () =
  let cr rel col = { Query.rel; col } in
  let e l r = { Query.l; r } in
  (* b.1 = c.0, then a.2 = c.0 joins the class; d.0 = d.1 is a second
     class; the repeated b.1 = a.2 and the reversed c.0 = b.1 merge
     nothing. *)
  let classes =
    Eq_classes.make
      [ e (cr 1 1) (cr 2 0); e (cr 3 0) (cr 3 1); e (cr 0 2) (cr 2 0);
        e (cr 1 1) (cr 0 2); e (cr 2 0) (cr 1 1) ]
  in
  check Alcotest.int "two classes" 2 (Eq_classes.n_classes classes);
  check
    (Alcotest.list (Alcotest.pair (Alcotest.pair Alcotest.int Alcotest.int)
       Alcotest.int))
    "members and class ids in first-appearance order"
    [ ((1, 1), 0); ((2, 0), 0); ((3, 0), 1); ((3, 1), 1); ((0, 2), 0) ]
    (List.map
       (fun ((c : Query.colref), k) -> ((c.Query.rel, c.Query.col), k))
       (Eq_classes.members classes));
  check Alcotest.bool "smallest (rel, col) represents" true
    (Eq_classes.repr classes (cr 2 0) = cr 0 2);
  check Alcotest.bool "a column on no edge is its own class" true
    (Eq_classes.class_of classes (cr 0 0) = None
    && Eq_classes.repr classes (cr 0 0) = cr 0 0);
  check Alcotest.int "redundant edges" 2 (Eq_classes.redundant classes)

let () =
  Alcotest.run "rdb_query"
    [
      ( "predicate",
        [
          Alcotest.test_case "cmp" `Quick test_pred_cmp;
          Alcotest.test_case "between/in" `Quick test_pred_between_in;
          Alcotest.test_case "like" `Quick test_pred_like;
          Alcotest.test_case "null tests" `Quick test_pred_null_tests;
          Alcotest.test_case "to_sql" `Quick test_pred_to_sql;
          qtest prop_eval_int_agrees;
          qtest prop_eval_str_agrees;
        ] );
      ( "query",
        [
          Alcotest.test_case "accessors" `Quick test_query_accessors;
          Alcotest.test_case "edges_between" `Quick test_edges_between;
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
          Alcotest.test_case "validate errors" `Quick test_validate_errors;
        ] );
      ( "join_graph",
        [
          Alcotest.test_case "connectivity" `Quick test_graph_connectivity;
          Alcotest.test_case "chain subsets" `Quick test_graph_chain_subsets;
          Alcotest.test_case "removable" `Quick test_removable_keeps_connectivity;
          Alcotest.test_case "to_dot" `Quick test_to_dot;
          qtest prop_connected_subsets_complete;
          qtest prop_removable_connectivity;
        ] );
      ( "eq_classes",
        [ Alcotest.test_case "classes" `Quick test_eq_classes ] );
    ]
