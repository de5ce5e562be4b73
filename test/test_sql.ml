module Lexer = Rdb_sql.Lexer
module Parser = Rdb_sql.Parser
module Ast = Rdb_sql.Ast
module Binder = Rdb_sql.Binder
module Unparse = Rdb_sql.Unparse
module Query = Rdb_query.Query
module Predicate = Rdb_query.Predicate

let check = Alcotest.check

(* ---- Lexer ---- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "SELECT COUNT(*) FROM t WHERE a.b = 'x''y';" in
  check Alcotest.int "token count" 15 (List.length toks);
  (match toks with
   | Lexer.Kw "SELECT" :: Lexer.Kw "COUNT" :: Lexer.Lparen :: Lexer.Star :: _ -> ()
   | _ -> Alcotest.fail "unexpected token stream");
  check Alcotest.bool "escaped quote" true
    (List.exists (function Lexer.Str "x'y" -> true | _ -> false) toks)

let test_lexer_numbers_ops () =
  let toks = Lexer.tokenize "x.y >= -12 AND x.z <> 3" in
  check Alcotest.bool "negative int" true
    (List.exists (function Lexer.Int (-12) -> true | _ -> false) toks);
  check Alcotest.bool "ge op" true
    (List.exists (function Lexer.Op ">=" -> true | _ -> false) toks);
  check Alcotest.bool "ne op" true
    (List.exists (function Lexer.Op "<>" -> true | _ -> false) toks)

let test_lexer_case_insensitive_keywords () =
  let toks = Lexer.tokenize "select From wHeRe" in
  check Alcotest.int "three keywords" 4 (List.length toks);
  check Alcotest.bool "all keywords" true
    (List.for_all (function Lexer.Kw _ | Lexer.Eof -> true | _ -> false) toks)

let test_lexer_error () =
  Alcotest.check_raises "bad char" (Lexer.Lex_error "unexpected character #")
    (fun () -> ignore (Lexer.tokenize "a # b"))

(* ---- Parser ---- *)

let test_parser_basic () =
  let stmt =
    Parser.parse
      "SELECT MIN(t.title), COUNT(*) FROM title AS t, movie_keyword mk \
       WHERE t.id = mk.movie_id AND t.production_year > 2000 \
       AND t.title LIKE '%Dark%' AND t.kind_id IN (1, 2) \
       AND t.production_year BETWEEN 1990 AND 2010;"
  in
  check Alcotest.int "two select items" 2 (List.length stmt.Ast.select);
  check Alcotest.int "two tables" 2 (List.length stmt.Ast.from);
  check Alcotest.int "five conditions" 5 (List.length stmt.Ast.where);
  (match stmt.Ast.from with
   | [ t; mk ] ->
     check Alcotest.string "alias via AS" "t" t.Ast.t_alias;
     check Alcotest.string "alias without AS" "mk" mk.Ast.t_alias
   | _ -> Alcotest.fail "from list")

let test_parser_no_where () =
  let stmt = Parser.parse "SELECT COUNT(*) FROM title AS t" in
  check Alcotest.int "no conditions" 0 (List.length stmt.Ast.where)

let test_parser_is_null () =
  let stmt =
    Parser.parse
      "SELECT COUNT(*) FROM t AS a WHERE a.x IS NULL AND a.y IS NOT NULL"
  in
  match stmt.Ast.where with
  | [ Ast.C_is_null _; Ast.C_is_not_null _ ] -> ()
  | _ -> Alcotest.fail "null tests not parsed"

let test_parser_errors () =
  let expect_fail sql =
    match Parser.parse sql with
    | exception Parser.Parse_error _ -> ()
    | exception Lexer.Lex_error _ -> ()
    | _ -> Alcotest.fail ("accepted bad SQL: " ^ sql)
  in
  expect_fail "SELECT FROM t";
  expect_fail "SELECT COUNT(*) FROM";
  expect_fail "SELECT COUNT(*) FROM t WHERE";
  expect_fail "SELECT COUNT(*) FROM t AS a WHERE a.x <";
  expect_fail "SELECT COUNT(*) FROM t t2 t3";
  expect_fail "SELECT AVG(t.x) FROM t";
  expect_fail "SELECT MAX(*) FROM t"

(* ---- Binder ---- *)

let catalog () = Rdb_imdb.Imdb_gen.generate ~scale:0.01 ()

let bind sql =
  Binder.bind (catalog ()) ~name:"test" (Parser.parse sql)

let test_binder_ok () =
  match
    bind
      "SELECT MIN(t.title) FROM title AS t, movie_keyword AS mk, keyword AS k \
       WHERE mk.movie_id = t.id AND mk.keyword_id = k.id AND k.keyword = 'kw_0'"
  with
  | Ok q ->
    check Alcotest.int "three rels" 3 (Query.n_rels q);
    check Alcotest.int "two edges" 2 (List.length q.Query.edges);
    check Alcotest.int "one pred" 1 (List.length q.Query.preds)
  | Error msg -> Alcotest.fail msg

let test_binder_unknown_alias () =
  match bind "SELECT COUNT(*) FROM title AS t WHERE zz.id = 1" with
  | Error msg -> check Alcotest.bool "mentions alias" true (msg = "unknown alias zz")
  | Ok _ -> Alcotest.fail "bound bad alias"

let test_binder_unknown_column () =
  match bind "SELECT COUNT(*) FROM title AS t WHERE t.nope = 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bound bad column"

let test_binder_duplicate_alias () =
  match bind "SELECT COUNT(*) FROM title AS t, keyword AS t" with
  | Error msg -> check Alcotest.string "dup" "duplicate alias t" msg
  | Ok _ -> Alcotest.fail "bound duplicate alias"

let test_binder_string_join_rejected () =
  match
    bind
      "SELECT COUNT(*) FROM title AS t, name AS n WHERE t.title = n.name"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bound string join"

(* An equality between two columns of one relation is no join: nothing
   would apply it, and the query would silently answer without it. *)
let same_relation_equalities =
  [
    "SELECT COUNT(*) FROM title AS t WHERE t.id = t.kind_id";
    "SELECT COUNT(*) FROM title AS t WHERE t.id = t.id";
  ]

let test_binder_same_relation_equality_rejected () =
  List.iter
    (fun sql ->
      match bind sql with
      | Error msg ->
        check Alcotest.string sql "join edge: both sides are in relation t" msg
      | Ok _ -> Alcotest.failf "bound %s" sql)
    same_relation_equalities

let test_like_shapes () =
  let shape pat =
    match Binder.like_shape pat with Ok p -> p | Error e -> Alcotest.fail e
  in
  (match shape "%x%" with
   | Predicate.Like (Predicate.Contains "x") -> ()
   | _ -> Alcotest.fail "contains");
  (match shape "x%" with
   | Predicate.Like (Predicate.Prefix "x") -> ()
   | _ -> Alcotest.fail "prefix");
  (match shape "%x" with
   | Predicate.Like (Predicate.Suffix "x") -> ()
   | _ -> Alcotest.fail "suffix");
  (match shape "x" with
   | Predicate.Cmp (Predicate.Eq, Value.Str "x") -> ()
   | _ -> Alcotest.fail "plain");
  check Alcotest.bool "interior rejected" true
    (Result.is_error (Binder.like_shape "a%b"))

(* ---- Unparse roundtrip ---- *)

let test_unparse_roundtrip () =
  let catalog = catalog () in
  let sql =
    "SELECT MIN(t.title) FROM title AS t, movie_keyword AS mk, keyword AS k \
     WHERE mk.movie_id = t.id AND mk.keyword_id = k.id \
     AND k.keyword = 'kw_0' AND t.production_year > 2000"
  in
  let q1 =
    match Binder.bind catalog ~name:"q" (Parser.parse sql) with
    | Ok q -> q
    | Error e -> Alcotest.fail e
  in
  let rendered = Unparse.query catalog q1 in
  let q2 =
    match Binder.bind catalog ~name:"q" (Parser.parse rendered) with
    | Ok q -> q
    | Error e -> Alcotest.fail ("reparse: " ^ e)
  in
  check Alcotest.bool "structurally equal" true (q1 = q2)

(* Unparse -> Parser -> Binder must be the identity on bound queries:
   anything less means the SQL we display is not the query we run. *)
let roundtrip_exactly catalog (q : Query.t) =
  let rendered = Unparse.query catalog q in
  match Binder.bind catalog ~name:q.Query.name (Parser.parse rendered) with
  | Ok q2 ->
    if q <> q2 then
      Alcotest.failf "roundtrip changed %s:\n%s" q.Query.name rendered
  | Error e -> Alcotest.fail (q.Query.name ^ ": " ^ e)

let test_unparse_all_job_queries_roundtrip () =
  let catalog = catalog () in
  List.iter (roundtrip_exactly catalog) (Rdb_imdb.Job_queries.all catalog)

let test_unparse_reopt_rewrites_roundtrip () =
  (* Every query the re-optimizer rewrites mid-flight must round-trip too,
     with its temp table substituted — the paper's Figure 6 display is
     only honest if the rewritten SQL re-binds to the rewritten query. *)
  let module Session = Rdb_core.Session in
  let module Reopt = Rdb_core.Reopt in
  let module Trigger = Rdb_core.Trigger in
  let catalog = Rdb_imdb.Imdb_gen.generate ~scale:0.02 () in
  let session = Session.create catalog in
  Session.analyze session;
  let steps_seen = ref 0 in
  List.iter
    (fun q ->
      let outcome =
        Reopt.run ~work_budget:50_000_000 ~cleanup:false session
          ~trigger:(Trigger.create 8.0) ~mode:Rdb_card.Estimator.Default q
      in
      List.iter
        (fun (s : Reopt.step) ->
          incr steps_seen;
          roundtrip_exactly catalog s.Reopt.query_after)
        outcome.Reopt.steps;
      List.iter
        (fun (s : Reopt.step) ->
          Catalog.drop_table catalog s.Reopt.temp_name;
          Rdb_stats.Db_stats.drop (Session.stats session)
            ~table:s.Reopt.temp_name)
        outcome.Reopt.steps)
    (Rdb_imdb.Job_queries.all catalog);
  check Alcotest.bool "rewrites exercised" true (!steps_seen > 10)


let test_parser_aggregates () =
  let stmt =
    Parser.parse
      "SELECT MAX(t.production_year), SUM(t.id), COUNT(t.kind_id), MIN(t.title) FROM title AS t"
  in
  (match stmt.Ast.select with
   | [ Ast.S_max _; Ast.S_sum _; Ast.S_count _; Ast.S_min _ ] -> ()
   | _ -> Alcotest.fail "aggregate list not parsed")

let test_binder_aggregates_and_exec () =
  let catalog = catalog () in
  let sql =
    "SELECT COUNT(*), COUNT(t.id), MIN(t.production_year), \
     MAX(t.production_year), SUM(t.kind_id) FROM title AS t, kind_type AS kt \
     WHERE t.kind_id = kt.id AND kt.kind = 'movie'"
  in
  match Binder.bind catalog ~name:"aggq" (Parser.parse sql) with
  | Error e -> Alcotest.fail e
  | Ok q ->
    let session = Rdb_core.Session.create catalog in
    Rdb_core.Session.analyze session;
    let prepared = Rdb_core.Session.prepare session q in
    let plan, _, _ =
      Rdb_core.Session.plan prepared ~mode:Rdb_card.Estimator.Default
    in
    let res = Rdb_core.Session.execute prepared plan in
    (match res.Rdb_exec.Executor.aggs with
     | [ Value.Int count; Value.Int count_id; Value.Int mn; Value.Int mx;
         Value.Int sum ] ->
       check Alcotest.int "counts agree" count count_id;
       check Alcotest.bool "min <= max" true (mn <= mx);
       (* every surviving row has kind_id = 1 ('movie') *)
       check Alcotest.int "sum of kind ids" count sum
     | _ -> Alcotest.fail "unexpected aggregate shapes")

let test_binder_sum_requires_int () =
  match
    bind "SELECT SUM(t.title) FROM title AS t"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "SUM over string accepted"

let () =
  Alcotest.run "rdb_sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "numbers and ops" `Quick test_lexer_numbers_ops;
          Alcotest.test_case "case-insensitive keywords" `Quick
            test_lexer_case_insensitive_keywords;
          Alcotest.test_case "lex error" `Quick test_lexer_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basic statement" `Quick test_parser_basic;
          Alcotest.test_case "no where" `Quick test_parser_no_where;
          Alcotest.test_case "null tests" `Quick test_parser_is_null;
          Alcotest.test_case "rejects malformed" `Quick test_parser_errors;
          Alcotest.test_case "aggregates" `Quick test_parser_aggregates;
        ] );
      ( "binder",
        [
          Alcotest.test_case "binds valid query" `Quick test_binder_ok;
          Alcotest.test_case "unknown alias" `Quick test_binder_unknown_alias;
          Alcotest.test_case "unknown column" `Quick test_binder_unknown_column;
          Alcotest.test_case "duplicate alias" `Quick test_binder_duplicate_alias;
          Alcotest.test_case "string join rejected" `Quick
            test_binder_string_join_rejected;
          Alcotest.test_case "same-relation equality rejected" `Quick
            test_binder_same_relation_equality_rejected;
          Alcotest.test_case "like shapes" `Quick test_like_shapes;
          Alcotest.test_case "aggregates bind and execute" `Quick
            test_binder_aggregates_and_exec;
          Alcotest.test_case "SUM requires int" `Quick test_binder_sum_requires_int;
        ] );
      ( "unparse",
        [
          Alcotest.test_case "roundtrip" `Quick test_unparse_roundtrip;
          Alcotest.test_case "all JOB queries roundtrip" `Quick
            test_unparse_all_job_queries_roundtrip;
          Alcotest.test_case "reopt rewrites roundtrip" `Quick
            test_unparse_reopt_rewrites_roundtrip;
        ] );
    ]
