(* Differential testing: seeded random join-graph queries over a small
   synthetic database, every optimizer configuration cross-checked against
   the brute-force Naive oracle. Any disagreement — aggregates, out_rows,
   or a plan node's observed cardinality — is a bug in the engine. *)

module Query = Rdb_query.Query
module Predicate = Rdb_query.Predicate
module Session = Rdb_core.Session
module Reopt = Rdb_core.Reopt
module Trigger = Rdb_core.Trigger
module Executor = Rdb_exec.Executor
module Naive = Rdb_exec.Naive
module Estimator = Rdb_card.Estimator
module Oracle = Rdb_card.Oracle
module Prng = Rdb_util.Prng
module Relset = Rdb_util.Relset

let n_random_queries = 210

(* ---- the synthetic database: a 4-level fk chain with NULLs and skew ---- *)

let words = [| "alpha"; "bravo"; "cobalt"; "delta"; "ember"; "flux"; "garnet"; "halo" |]

let rand_str rng = words.(Prng.int rng (Array.length words)) ^ string_of_int (Prng.int rng 10)

(* ~5% NULL foreign keys, and a skewed 20% hot spot on parent 0. *)
let fk rng parent_n =
  if Prng.int rng 20 = 0 then Column.null_int
  else if Prng.int rng 5 = 0 then 0
  else Prng.int rng parent_n

let regions_n = 15
let groups_n = 40
let users_n = 120
let events_n = 250

let build_catalog seed =
  let rng = Prng.create seed in
  let cat = Catalog.create () in
  let schema_of specs =
    Schema.make (List.map (fun (name, ty) -> { Schema.name; ty }) specs)
  in
  let add name specs cols =
    Catalog.add_table cat (Table.create ~name ~schema:(schema_of specs) cols)
  in
  add "regions"
    [ ("id", Value.Ty_int); ("kind", Value.Ty_int); ("name", Value.Ty_str) ]
    [| Column.Ints (Array.init regions_n Fun.id);
       Column.Ints (Array.init regions_n (fun _ -> Prng.int rng 5));
       Column.Strs (Array.init regions_n (fun _ -> rand_str rng)) |];
  add "groups"
    [ ("id", Value.Ty_int); ("region_id", Value.Ty_int);
      ("size", Value.Ty_int); ("tag", Value.Ty_str) ]
    [| Column.Ints (Array.init groups_n Fun.id);
       Column.Ints (Array.init groups_n (fun _ -> fk rng regions_n));
       Column.Ints (Array.init groups_n (fun _ -> Prng.int rng 100));
       Column.Strs (Array.init groups_n (fun _ -> rand_str rng)) |];
  add "users"
    [ ("id", Value.Ty_int); ("group_id", Value.Ty_int);
      ("age", Value.Ty_int); ("name", Value.Ty_str) ]
    [| Column.Ints (Array.init users_n Fun.id);
       Column.Ints (Array.init users_n (fun _ -> fk rng groups_n));
       Column.Ints (Array.init users_n (fun _ -> Prng.int_in rng 18 80));
       Column.Strs (Array.init users_n (fun _ -> rand_str rng)) |];
  add "events"
    [ ("id", Value.Ty_int); ("user_id", Value.Ty_int);
      ("cost", Value.Ty_int); ("kind", Value.Ty_str) ]
    [| Column.Ints (Array.init events_n Fun.id);
       Column.Ints (Array.init events_n (fun _ -> fk rng users_n));
       Column.Ints (Array.init events_n (fun _ -> Prng.int rng 1000));
       Column.Strs (Array.init events_n (fun _ -> rand_str rng)) |];
  List.iter
    (fun (t, cols) -> List.iter (fun c -> Catalog.add_index cat ~table:t ~col:c) cols)
    [ ("regions", [ 0 ]); ("groups", [ 0; 1 ]); ("users", [ 0; 1 ]);
      ("events", [ 0; 1 ]) ];
  cat

(* ---- random query generation ---- *)

(* (child table, fk col, parent table, pk col) *)
let join_rules =
  [ ("events", 1, "users", 0); ("users", 1, "groups", 0);
    ("groups", 1, "regions", 0) ]

(* Predicate-eligible columns per table: (col, lo, hi) for ints, cols for
   strings, and the nullable fk column. *)
let int_pred_cols = function
  | "regions" -> [ (1, 0, 4) ]
  | "groups" -> [ (2, 0, 99) ]
  | "users" -> [ (2, 18, 80) ]
  | "events" -> [ (2, 0, 999) ]
  | t -> invalid_arg t

let str_pred_col = function
  | "regions" -> 2
  | "groups" | "users" | "events" -> 3
  | t -> invalid_arg t

let fk_col = function
  | "groups" | "users" | "events" -> Some 1
  | _ -> None

let int_col_bounds table =
  (0, 0, max regions_n events_n)
  :: int_pred_cols table
  @ (match fk_col table with Some c -> [ (c, 0, users_n) ] | None -> [])

let rand_int_pred rng lo hi =
  match Prng.int rng 4 with
  | 0 ->
    let op =
      match Prng.int rng 4 with
      | 0 -> Predicate.Lt | 1 -> Predicate.Le | 2 -> Predicate.Gt
      | _ -> Predicate.Ge
    in
    Predicate.Cmp (op, Value.Int (Prng.int_in rng lo hi))
  | 1 -> Predicate.Cmp (Predicate.Eq, Value.Int (Prng.int_in rng lo hi))
  | 2 ->
    let a = Prng.int_in rng lo hi and b = Prng.int_in rng lo hi in
    Predicate.Between (min a b, max a b)
  | _ ->
    Predicate.In_list
      (List.init (1 + Prng.int rng 3) (fun _ -> Value.Int (Prng.int_in rng lo hi)))

let rand_str_pred rng =
  let w = words.(Prng.int rng (Array.length words)) in
  match Prng.int rng 3 with
  | 0 -> Predicate.Like (Predicate.Prefix (String.sub w 0 2))
  | 1 -> Predicate.Like (Predicate.Contains (String.sub w 1 2))
  | _ -> Predicate.Like (Predicate.Suffix (string_of_int (Prng.int rng 10)))

let rand_preds rng rel table =
  let one () =
    match Prng.int rng 5 with
    | 0 ->
      let col = str_pred_col table in
      Some { Query.target = { Query.rel; col }; p = rand_str_pred rng }
    | 1 ->
      (match fk_col table with
       | Some col ->
         let p = if Prng.int rng 4 = 0 then Predicate.Is_null else Predicate.Is_not_null in
         Some { Query.target = { Query.rel; col }; p }
       | None -> None)
    | _ ->
      let col, lo, hi =
        let cs = int_pred_cols table in
        List.nth cs (Prng.int rng (List.length cs))
      in
      Some { Query.target = { Query.rel; col }; p = rand_int_pred rng lo hi }
  in
  let first = if Prng.int rng 3 < 2 then one () else None in
  let second = if Prng.int rng 4 = 0 then one () else None in
  List.filter_map Fun.id [ first; second ]

let rand_aggs rng (rels : Query.rel array) =
  let rand_colref ~int_only =
    let rel = Prng.int rng (Array.length rels) in
    let table = rels.(rel).Query.table in
    if int_only || Prng.bool rng then begin
      let cs = int_col_bounds table in
      let col, _, _ = List.nth cs (Prng.int rng (List.length cs)) in
      { Query.rel; col }
    end
    else { Query.rel; col = str_pred_col table }
  in
  let extra () =
    match Prng.int rng 4 with
    | 0 -> Query.Count_col (rand_colref ~int_only:true)
    | 1 -> Query.Min_col (rand_colref ~int_only:false)
    | 2 -> Query.Max_col (rand_colref ~int_only:false)
    | _ -> Query.Sum_col (rand_colref ~int_only:true)
  in
  Query.Count_star
  :: (if Prng.bool rng then [ extra () ] else [])
  @ (if Prng.int rng 3 = 0 then [ extra () ] else [])

(* Grow a tree-connected query: start from one relation, repeatedly attach
   a new alias to an existing one along a foreign-key rule (in either
   direction, so chains, stars and self-join shapes all appear). *)
let gen_query rng i =
  let n = Prng.int_in rng 2 5 in
  let start = [| "events"; "users"; "groups"; "regions" |] in
  let rels = ref [ start.(Prng.int rng 4) ] in
  let edges = ref [] in
  while List.length !rels < n do
    let len = List.length !rels in
    let ei = Prng.int rng len in
    let et = List.nth !rels ei in
    let candidates =
      List.concat_map
        (fun (t1, c1, t2, c2) ->
          (if t1 = et then [ (c1, t2, c2) ] else [])
          @ (if t2 = et then [ (c2, t1, c1) ] else []))
        join_rules
    in
    match candidates with
    | [] -> assert false
    | cs ->
      let ec, nt, nc = List.nth cs (Prng.int rng (List.length cs)) in
      rels := !rels @ [ nt ];
      edges :=
        { Query.l = { Query.rel = ei; col = ec };
          r = { Query.rel = len; col = nc } }
        :: !edges
  done;
  let rels =
    Array.of_list
      (List.mapi
         (fun idx t -> { Query.alias = Printf.sprintf "%s%d" t idx; table = t })
         !rels)
  in
  let preds =
    List.concat (List.mapi (fun idx r -> rand_preds rng idx r.Query.table)
                   (Array.to_list rels))
  in
  { Query.name = Printf.sprintf "r%03d" i;
    rels;
    preds;
    edges = List.rev !edges;
    select = rand_aggs rng rels }

(* ---- checks ---- *)

let perfect_all prepared =
  let n = Query.n_rels (Session.query prepared) in
  Oracle.ensure_up_to (Session.oracle prepared) n;
  Estimator.Perfect n

let perfect n prepared =
  Oracle.ensure_up_to (Session.oracle prepared) n;
  Estimator.Perfect n

let check_executor catalog session q modes =
  let prepared = Session.prepare session q in
  List.iter
    (fun mode ->
      let mode = mode prepared in
      let plan, _, _ = Session.plan prepared ~mode in
      let res = Session.execute prepared plan in
      match Naive.agrees ~catalog q res with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: executor vs naive: %s" q.Query.name msg)
    modes

let check_reopt catalog session q =
  let naive = Naive.run ~catalog q in
  let outcome =
    Reopt.run session ~trigger:(Trigger.create 2.0) ~mode:Estimator.Default q
  in
  let r = outcome.Reopt.final_exec in
  if r.Executor.out_rows <> naive.Naive.out_rows then
    Alcotest.failf "%s: reopt out_rows %d, naive %d" q.Query.name
      r.Executor.out_rows naive.Naive.out_rows;
  if not (List.equal Value.equal r.Executor.aggs naive.Naive.aggs) then
    Alcotest.failf "%s: reopt aggregates disagree with naive" q.Query.name

(* Materialize the sub-join of one edge's endpoints through the executor,
   substitute the temp table via Reopt.rewrite, and check the rewritten
   query still means the same thing (per the naive oracle). *)
let check_rewrite catalog session q =
  let edge = List.nth q.Query.edges (List.length q.Query.edges / 2) in
  let set = Relset.of_list [ edge.Query.l.Query.rel; edge.Query.r.Query.rel ] in
  if Relset.cardinal set < 2 then ()  (* a self-loop edge; nothing to fold *)
  else begin
    let cols = Reopt.needed_cols q set in
    let members = Relset.to_list set in
    let reref (cr : Query.colref) =
      let rec index i = function
        | [] -> assert false
        | m :: rest -> if m = cr.Query.rel then i else index (i + 1) rest
      in
      { cr with Query.rel = index 0 members }
    in
    let sub =
      { Query.name = q.Query.name ^ "sub";
        rels = Array.of_list (List.map (fun i -> q.Query.rels.(i)) members);
        preds =
          List.filter_map
            (fun (p : Query.pred) ->
              if Relset.mem p.Query.target.Query.rel set then
                Some { p with Query.target = reref p.Query.target }
              else None)
            q.Query.preds;
        edges =
          List.map
            (fun (e : Query.edge) ->
              { Query.l = reref e.Query.l; r = reref e.Query.r })
            (Query.edges_within q set);
        select = [] }
    in
    let sub_prepared = Session.prepare session sub in
    let plan, _, _ = Session.plan sub_prepared ~mode:Estimator.Default in
    let mat =
      Executor.materialize ~catalog ~query:sub ~cols:(List.map reref cols) plan
    in
    let temp_name = "tmp_" ^ q.Query.name in
    let schema =
      Schema.make
        (List.mapi
           (fun i (cr : Query.colref) ->
             let table = Catalog.table_exn catalog q.Query.rels.(cr.Query.rel).Query.table in
             { Schema.name = Printf.sprintf "c%d" i;
               ty = (Schema.column (Table.schema table) cr.Query.col).Schema.ty })
           cols)
    in
    Catalog.add_table catalog
      (Table.of_rows ~name:temp_name ~schema mat.Executor.mat_rows);
    let rewritten = Reopt.rewrite q ~set ~temp_name ~temp_cols:cols in
    (* The symbolic prover must agree with the oracle that the rewrite
       preserved the query — and it must prove it, not merely not-refute. *)
    let findings =
      Rdb_verify.Equiv.check_step ~catalog ~original:q ~set ~temp_cols:cols
        ~temp_name rewritten
    in
    if Rdb_analysis.Finding.has_errors findings then
      Alcotest.failf "%s: prover rejected the rewrite:\n%s" q.Query.name
        (Rdb_analysis.Finding.render findings);
    let a = Naive.run ~catalog q in
    let b = Naive.run ~catalog rewritten in
    Catalog.drop_table catalog temp_name;
    if a.Naive.out_rows <> b.Naive.out_rows then
      Alcotest.failf "%s: rewrite changed out_rows %d -> %d" q.Query.name
        a.Naive.out_rows b.Naive.out_rows;
    if not (List.equal Value.equal a.Naive.aggs b.Naive.aggs) then
      Alcotest.failf "%s: rewrite changed aggregates" q.Query.name
  end

(* ---- the suites ---- *)

let test_random_differential () =
  let catalog = build_catalog 2024 in
  let session = Session.create catalog in
  Session.analyze session;
  let rng = Prng.create 77 in
  let nonempty = ref 0 in
  for i = 0 to n_random_queries - 1 do
    let q = gen_query rng i in
    (match Query.validate catalog q with
     | Ok () -> ()
     | Error e -> Alcotest.failf "%s: generated invalid query: %s" q.Query.name e);
    let modes =
      [ (fun _ -> Estimator.Default) ]
      @ (if i mod 2 = 0 then [ perfect_all ] else [])
      @ (if i mod 4 = 0 then [ perfect 2 ] else [])
    in
    check_executor catalog session q modes;
    if i mod 5 = 0 then check_reopt catalog session q;
    if i mod 7 = 0 && Query.n_rels q >= 3 then check_rewrite catalog session q;
    if (Naive.run ~catalog q).Naive.out_rows > 0 then incr nonempty
  done;
  (* the generator should exercise both empty and non-empty results *)
  Alcotest.(check bool) "some queries return rows" true (!nonempty > 20);
  Alcotest.(check bool) "some queries return nothing" true
    (!nonempty < n_random_queries)

(* The real workload, at a scale where the brute-force oracle is viable:
   every 4-relation JOB-analog query under default and perfect plans. *)
let test_job_differential () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~seed:11 ~scale:0.02 () in
  let session = Session.create catalog in
  Session.analyze session;
  let qs =
    List.filter (fun q -> Query.n_rels q <= 4) (Rdb_imdb.Job_queries.all catalog)
  in
  Alcotest.(check bool) "workload has 4-rel queries" true (List.length qs > 0);
  List.iter
    (fun q -> check_executor catalog session q [ (fun _ -> Estimator.Default); perfect_all ])
    qs

let () =
  Alcotest.run "rdb_differential"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random queries vs naive oracle" n_random_queries)
            `Quick test_random_differential;
          Alcotest.test_case "JOB 4-rel queries vs naive oracle" `Quick
            test_job_differential;
        ] );
    ]
