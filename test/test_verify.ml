(* The symbolic plan verifier, tested three ways:

   - property tests over seeded random SPJ queries: SQL
     unparse -> parse -> bind is a fixpoint, canonicalization is idempotent
     and alias-rename-invariant;
   - soundness: on generated IMDB data, no true sub-join cardinality ever
     exceeds the derived upper bound (or undercuts the lower bound), the
     declared key/FK constraints actually hold, and pessimistic clamping
     changes only plans, never query results;
   - regression: the pre-PR-3 Reopt.rewrite emitted duplicate join edges
     with opposite orientations; re-introducing that exact artifact in test
     scaffolding must be rejected by the prover, while the fixed rewrite is
     proved equivalent. *)

module Query = Rdb_query.Query
module Predicate = Rdb_query.Predicate
module Join_graph = Rdb_query.Join_graph
module Session = Rdb_core.Session
module Reopt = Rdb_core.Reopt
module Estimator = Rdb_card.Estimator
module Naive = Rdb_exec.Naive
module Executor = Rdb_exec.Executor
module Prng = Rdb_util.Prng
module Relset = Rdb_util.Relset
module Finding = Rdb_analysis.Finding
module Cqnf = Rdb_verify.Cqnf
module Equiv = Rdb_verify.Equiv
module Card_bound = Rdb_verify.Card_bound
module Query_gen = Rdb_verify.Query_gen

let imdb ?(scale = 0.02) ?(seed = 11) () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~seed ~scale () in
  let session = Session.create catalog in
  Session.analyze session;
  (catalog, session)

(* ---- property tests over the seeded random query generator ---- *)

let n_gen_queries = 120

let gen_queries catalog =
  let g = Query_gen.create ~catalog in
  let rng = Prng.create 424242 in
  List.init n_gen_queries (fun i ->
      Query_gen.gen g rng ~name:(Printf.sprintf "g%03d" i))

let test_generator_valid () =
  let catalog, _ = imdb () in
  let qs = gen_queries catalog in
  List.iter
    (fun (q : Query.t) ->
      match Query.validate catalog q with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: generated invalid query: %s" q.Query.name e)
    qs;
  (* the FK-rule walk should produce self-join shapes too *)
  let has_self_join (q : Query.t) =
    let tables =
      List.sort compare
        (Array.to_list (Array.map (fun (r : Query.rel) -> r.Query.table) q.Query.rels))
    in
    let rec dup = function
      | a :: (b :: _ as rest) -> a = b || dup rest
      | _ -> false
    in
    dup tables
  in
  Alcotest.(check bool) "self-join shapes appear" true
    (List.exists has_self_join qs)

let test_sql_fixpoint () =
  let catalog, _ = imdb () in
  List.iter
    (fun (q : Query.t) ->
      let sql = Rdb_sql.Unparse.query catalog q in
      let q2 =
        match Rdb_sql.Binder.bind catalog ~name:q.Query.name (Rdb_sql.Parser.parse sql) with
        | Ok q2 -> q2
        | Error e -> Alcotest.failf "%s: reparse failed: %s\n%s" q.Query.name e sql
      in
      let sql2 = Rdb_sql.Unparse.query catalog q2 in
      if sql <> sql2 then
        Alcotest.failf "%s: unparse/parse not a fixpoint:\n%s\n%s" q.Query.name
          sql sql2;
      if not (Cqnf.equal (Cqnf.of_query ~catalog q) (Cqnf.of_query ~catalog q2))
      then Alcotest.failf "%s: reparse changed the canonical form" q.Query.name)
    (gen_queries catalog)

let test_canon_idempotent () =
  let catalog, _ = imdb () in
  List.iter
    (fun (q : Query.t) ->
      let f = Cqnf.of_query ~catalog q in
      if not (Cqnf.equal f (Cqnf.canon f)) then
        Alcotest.failf "%s: canon not idempotent" q.Query.name;
      let n1 = Cqnf.normalize ~catalog q in
      let n2 = Cqnf.normalize ~catalog n1 in
      if n1 <> { n2 with Query.name = n1.Query.name } then
        Alcotest.failf "%s: normalize not idempotent" q.Query.name;
      if not (Cqnf.equal f (Cqnf.of_query ~catalog n1)) then
        Alcotest.failf "%s: normalize changed the canonical form" q.Query.name)
    (gen_queries catalog)

let test_alias_invariance () =
  let catalog, _ = imdb () in
  List.iter
    (fun (q : Query.t) ->
      let renamed = Query_gen.rename_aliases q in
      if not (Cqnf.equal (Cqnf.of_query ~catalog q) (Cqnf.of_query ~catalog renamed))
      then
        Alcotest.failf "%s: alias renaming changed the canonical form"
          q.Query.name;
      (* and the renamed query is proved bag-equal, not merely set-equal *)
      match
        Equiv.equivalence (Cqnf.of_query ~catalog q)
          (Cqnf.of_query ~catalog renamed)
      with
      | Equiv.Bag_equal -> ()
      | Equiv.Set_equal | Equiv.Not_equal _ ->
        Alcotest.failf "%s: renamed query not proved bag-equal" q.Query.name)
    (gen_queries catalog)

(* ---- soundness of the cardinality bounds ---- *)

let connected_subsets (q : Query.t) =
  let n = Query.n_rels q in
  let graph = Join_graph.make q in
  let rec go i acc =
    if i = 1 lsl n then acc
    else begin
      let s =
        List.fold_left
          (fun s r -> if i land (1 lsl r) <> 0 then Relset.add r s else s)
          Relset.empty (List.init n Fun.id)
      in
      let acc =
        if not (Relset.is_empty s) && Join_graph.is_connected graph s then
          s :: acc
        else acc
      in
      go (i + 1) acc
    end
  in
  go 1 []

let small_job_queries catalog =
  List.filter
    (fun q -> Query.n_rels q <= 4)
    (Rdb_imdb.Job_queries.all catalog)

let test_bound_soundness () =
  let catalog, session = imdb () in
  let stats = Session.stats session in
  let checked = ref 0 in
  let check (q : Query.t) =
    let ctx = Card_bound.create ~catalog ~stats q in
    List.iter
      (fun s ->
        let lo, hi = Card_bound.interval ctx s in
        let actual = float_of_int (Naive.count ~catalog q s) in
        incr checked;
        if actual > hi +. 0.5 then
          Alcotest.failf "%s %s: true cardinality %.0f above upper bound %.1f"
            q.Query.name
            (String.concat "," (List.map (Query.rel_alias q) (Relset.to_list s)))
            actual hi;
        if actual < lo -. 0.5 then
          Alcotest.failf "%s %s: true cardinality %.0f below lower bound %.1f"
            q.Query.name
            (String.concat "," (List.map (Query.rel_alias q) (Relset.to_list s)))
            actual lo)
      (connected_subsets q)
  in
  List.iter check (small_job_queries catalog);
  (* and on generated queries, whose predicates hit sampled constants *)
  let rng = Prng.create 99 in
  ignore rng;
  List.iteri (fun i q -> if i mod 4 = 0 then check q) (gen_queries catalog);
  Alcotest.(check bool) "exercised many subsets" true (!checked > 300)

let test_constraints_hold () =
  let catalog, _ = imdb () in
  let findings = Card_bound.check_constraints catalog in
  if Finding.has_errors findings then
    Alcotest.failf "generated data violates declared constraints:\n%s"
      (Finding.render (Finding.errors findings))

let test_clamp_preserves_results () =
  let catalog, session = imdb () in
  List.iteri
    (fun i (q : Query.t) ->
      if i mod 3 = 0 then begin
        let prepared = Session.prepare session q in
        let plan, _, _ = Session.plan prepared ~mode:Estimator.Default in
        let clamped, _, _ =
          Session.plan ~pessimistic:true prepared ~mode:Estimator.Default
        in
        let a = Session.execute prepared plan in
        let b = Session.execute prepared clamped in
        if not (List.equal Value.equal a.Executor.aggs b.Executor.aggs) then
          Alcotest.failf "%s: pessimistic clamping changed the results"
            q.Query.name;
        if a.Executor.out_rows <> b.Executor.out_rows then
          Alcotest.failf "%s: pessimistic clamping changed out_rows %d -> %d"
            q.Query.name a.Executor.out_rows b.Executor.out_rows
      end)
    (small_job_queries catalog @ gen_queries catalog)

(* ---- the propagation against its pre-bitset reference ---- *)

(* [Card_bound.compute] as it stood before per-relation facts and bitset
   components: a list flood fill over every edge, and edge lookups and
   statistics on every peel. Singletons come from [Card_bound] itself (the
   scan bounds did not change), and the MCV rule is the 100-slot one the
   property's statistics are built with. *)
module Ref_bound = struct
  module Col_stats = Rdb_stats.Col_stats
  module Db_stats = Rdb_stats.Db_stats
  module Mcv = Rdb_stats.Mcv

  type t = {
    catalog : Catalog.t;
    stats : Db_stats.t;
    q : Query.t;
    ctx : Card_bound.t;
    memo : (Relset.t, float * float) Hashtbl.t;
  }

  let create ~catalog ~stats q =
    { catalog; stats; q; ctx = Card_bound.create ~catalog ~stats q;
      memo = Hashtbl.create 64 }

  let table_of t rel =
    Catalog.table_exn t.catalog t.q.Query.rels.(rel).Query.table

  let schema_of t rel = Table.schema (table_of t rel)

  let fresh_stats t rel col =
    let tbl = table_of t rel in
    match Db_stats.col t.stats ~table:(Table.name tbl) ~col with
    | Some s when s.Col_stats.row_count = Table.nrows tbl -> Some s
    | Some _ | None -> None

  let max_frequency (s : Col_stats.t) =
    let ri f = int_of_float (Float.round f) in
    let non_null =
      s.Col_stats.row_count
      - ri (s.Col_stats.null_frac *. float_of_int s.Col_stats.row_count)
    in
    match Mcv.entries s.Col_stats.mcv with
    | (_, f) :: _ -> ri (f *. float_of_int non_null)
    | [] -> if non_null > 0 then 1 else 0

  let components t s =
    let rec grow comp frontier =
      match frontier with
      | [] -> comp
      | r :: rest ->
        let nbrs =
          List.filter_map
            (fun { Query.l; r = rr } ->
              let a = l.Query.rel and b = rr.Query.rel in
              if a = r && Relset.mem b s && not (Relset.mem b comp) then Some b
              else if b = r && Relset.mem a s && not (Relset.mem a comp) then
                Some a
              else None)
            t.q.Query.edges
        in
        let nbrs = List.sort_uniq compare nbrs in
        grow
          (List.fold_left (fun c b -> Relset.add b c) comp nbrs)
          (nbrs @ rest)
    in
    let rec split remaining acc =
      if Relset.is_empty remaining then List.rev acc
      else begin
        let seed = Relset.min_elt remaining in
        let comp = grow (Relset.singleton seed) [ seed ] in
        split (Relset.diff remaining comp) (comp :: acc)
      end
    in
    split s []

  let fk_edge_safe t ~child_cr ~r_cr =
    let child_schema = schema_of t (child_cr : Query.colref).Query.rel in
    let r_rel = (r_cr : Query.colref).Query.rel in
    let r_schema = schema_of t r_rel in
    match Schema.fk_of child_schema child_cr.Query.col with
    | Some { Schema.ref_table; ref_col; _ } ->
      Schema.is_not_null child_schema child_cr.Query.col
      && ref_table = t.q.Query.rels.(r_rel).Query.table
      && (match Schema.find r_schema ref_col with
          | Some i -> i = r_cr.Query.col && Schema.is_unique r_schema i
          | None -> false)
    | None -> false

  let rec interval t s =
    match Hashtbl.find_opt t.memo s with
    | Some iv -> iv
    | None ->
      let iv = compute t s in
      Hashtbl.replace t.memo s iv;
      iv

  and compute t s =
    match Relset.cardinal s with
    | 1 -> Card_bound.interval t.ctx s
    | _ ->
      let members = Relset.to_list s in
      let hi =
        List.fold_left
          (fun best r ->
            let rest = Relset.remove r s in
            let base =
              List.fold_left
                (fun acc comp -> acc *. Float.max 1.0 (snd (interval t comp)))
                1.0 (components t rest)
            in
            let _, hi_r = interval t (Relset.singleton r) in
            let dup =
              List.fold_left
                (fun acc { Query.l = _; r = r_cr } ->
                  let d =
                    if Schema.is_unique (schema_of t r_cr.Query.rel)
                         r_cr.Query.col
                    then 1.0
                    else
                      match fresh_stats t r_cr.Query.rel r_cr.Query.col with
                      | Some st -> float_of_int (max_frequency st)
                      | None -> hi_r
                  in
                  Float.min acc d)
                hi_r
                (Query.edges_between t.q rest (Relset.singleton r))
            in
            Float.min best (base *. Float.max 1.0 dup))
          infinity members
      in
      let lo =
        List.fold_left
          (fun best r ->
            let rest = Relset.remove r s in
            match components t rest with
            | [ _ ] when Query.preds_of_cols t.q r = [] ->
              (match Query.edges_between t.q rest (Relset.singleton r) with
               | [ { Query.l = child_cr; r = r_cr } ]
                 when fk_edge_safe t ~child_cr ~r_cr ->
                 Float.max best (fst (interval t rest))
               | _ -> best)
            | _ -> best)
          0.0 members
      in
      (Float.min lo hi, hi)
end

(* A generated query, perturbed from the same seed: each independently
   half the time, a duplicate of an edge (either orientation), a
   self-edge, and one table's statistics made stale by a row-count
   mismatch, so the propagation's no-statistics branches run. *)
let perturbed g stats seed =
  let rng = Prng.create seed in
  let q = Query_gen.gen g rng ~name:(Printf.sprintf "p%d" seed) in
  let edges = Array.of_list q.Query.edges in
  let pick () = edges.(Prng.int rng (Array.length edges)) in
  let extra =
    (if Prng.bool rng then
       let e = pick () in
       [ (if Prng.bool rng then e else { Query.l = e.Query.r; r = e.Query.l }) ]
     else [])
    @ if Prng.bool rng then [ (let e = pick () in { e with Query.r = e.Query.l }) ]
      else []
  in
  let stats =
    if Prng.bool rng then stats
    else begin
      let stale = Rdb_stats.Db_stats.copy stats in
      let rel = q.Query.rels.(Prng.int rng (Query.n_rels q)) in
      (match Rdb_stats.Db_stats.get stale ~table:rel.Query.table with
       | Some cols ->
         Rdb_stats.Db_stats.set stale ~table:rel.Query.table
           (Array.map
              (fun (c : Rdb_stats.Col_stats.t) ->
                { c with Rdb_stats.Col_stats.row_count = c.row_count + 1 })
              cols)
       | None -> ());
      stale
    end
  in
  ({ q with Query.edges = q.Query.edges @ extra }, stats)

let bound_fixture = lazy (imdb ~scale:0.01 ())

let test_matches_reference =
  QCheck.Test.make ~count:150
    ~name:"bitset propagation equals the list reference, bit for bit"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let catalog, session = Lazy.force bound_fixture in
      let g = Query_gen.create ~catalog in
      let q, stats = perturbed g (Session.stats session) seed in
      let ctx = Card_bound.create ~catalog ~stats q in
      let reference = Ref_bound.create ~catalog ~stats q in
      (* every non-empty subset, disconnected ones included *)
      let rels = List.init (Query.n_rels q) Fun.id in
      List.for_all
        (fun i ->
          let s = Relset.of_list (List.filter (fun r -> i land (1 lsl r) <> 0) rels) in
          let lo, hi = Card_bound.interval ctx s in
          let rlo, rhi = Ref_bound.interval reference s in
          Float.equal lo rlo && Float.equal hi rhi
          || QCheck.Test.fail_reportf "%s %s: [%h, %h], reference [%h, %h]"
               q.Query.name
               (String.concat "," (Query.aliases q s)) lo hi rlo rhi)
        (List.init ((1 lsl Query.n_rels q) - 1) succ))

(* The bounds read an MCV list's completeness from the list itself, not
   from an assumed slot count: with 0 or 10 slots every upper bound still
   dominates the true cardinality of every connected subset. *)
let test_bounds_any_mcv_slots () =
  let catalog = Rdb_imdb.Imdb_gen.generate ~scale:0.02 () in
  let queries =
    List.filter (fun q -> Query.n_rels q <= 6) (Rdb_imdb.Job_queries.all catalog)
  in
  List.iter
    (fun mcv_slots ->
      let session = Session.create catalog in
      Session.analyze ~mcv_slots session;
      let checked = ref 0 in
      List.iter
        (fun (q : Query.t) ->
          let ctx =
            Card_bound.create ~catalog ~stats:(Session.stats session) q
          in
          let oracle = Rdb_card.Oracle.create catalog q in
          List.iter
            (fun s ->
              let lo, hi = Card_bound.interval ctx s in
              let actual = float_of_int (Rdb_card.Oracle.true_card oracle s) in
              incr checked;
              if actual > hi +. 0.5 || actual < lo -. 0.5 then
                Alcotest.failf "%d slots, %s {%s}: %.0f true rows outside [%.1f, %.1f]"
                  mcv_slots q.Query.name
                  (String.concat "," (Query.aliases q s)) actual lo hi)
            (Join_graph.connected_subsets (Join_graph.make q)))
        queries;
      Alcotest.(check int) "every small JOB subset checked" 438 !checked)
    [ 0; 10 ]

(* ---- the rewrite-equivalence prover on re-optimization steps ---- *)

(* A join triangle over the workload schema: t.id, mk.movie_id and
   ci.movie_id all in one equivalence class, closed by a redundant third
   edge — the shape on which the pre-PR-3 rewrite produced duplicates. *)
let triangle_query () =
  {
    Query.name = "tri";
    rels =
      [| { Query.alias = "t"; table = "title" };
         { Query.alias = "mk"; table = "movie_keyword" };
         { Query.alias = "ci"; table = "cast_info" } |];
    preds =
      [ { Query.target = { Query.rel = 2; col = 4 };
          p = Predicate.Between (1, 2) } ];
    edges =
      [ { Query.l = { Query.rel = 0; col = 0 };
          r = { Query.rel = 1; col = 1 } };
        { Query.l = { Query.rel = 0; col = 0 };
          r = { Query.rel = 2; col = 2 } };
        (* the cycle-closing edge, oriented ci -> mk *)
        { Query.l = { Query.rel = 2; col = 2 };
          r = { Query.rel = 1; col = 1 } } ];
    select = [ Query.Count_star ];
  }

let step_args () =
  let q = triangle_query () in
  let set = Relset.of_list [ 0; 1 ] in
  let temp_cols = Reopt.needed_cols q set in
  (q, set, temp_cols, "temp_tri")

let errors_with code findings =
  List.exists
    (fun (f : Finding.t) -> f.Finding.severity = Finding.Error)
    (Finding.by_code code findings)

let test_rewrite_proved () =
  let catalog, _ = imdb () in
  let q, set, temp_cols, temp_name = step_args () in
  let q' = Reopt.rewrite q ~set ~temp_name ~temp_cols in
  let findings = Equiv.check_step ~catalog ~original:q ~set ~temp_cols ~temp_name q' in
  if Finding.has_errors findings then
    Alcotest.failf "genuine rewrite rejected:\n%s" (Finding.render findings);
  Alcotest.(check bool) "step carries a rewrite-proved finding" true
    (Finding.by_code "rewrite-proved" findings <> [])

(* Re-introduce the exact pre-fix artifact: the crossing edge that collapsed
   onto the temp table reappears with the opposite orientation, surviving
   the rewrite's sort_uniq dedup. *)
let test_broken_rewrite_rejected () =
  let catalog, _ = imdb () in
  let q, set, temp_cols, temp_name = step_args () in
  let q' = Reopt.rewrite q ~set ~temp_name ~temp_cols in
  let temp_idx = Query.n_rels q' - 1 in
  let dup_edge =
    match
      List.find_opt
        (fun (e : Query.edge) -> e.Query.l.Query.rel = temp_idx)
        q'.Query.edges
    with
    | Some e -> { Query.l = e.Query.r; r = e.Query.l }
    | None -> Alcotest.fail "rewrite produced no temp-table edge"
  in
  let broken = { q' with Query.edges = q'.Query.edges @ [ dup_edge ] } in
  let findings =
    Equiv.check_step ~catalog ~original:q ~set ~temp_cols ~temp_name broken
  in
  Alcotest.(check bool) "duplicate-edge error reported" true
    (errors_with "rewrite-duplicate-edge" findings);
  (* note the original query itself contains the redundant cycle edge, so a
     redundancy *delta* alone cannot catch this — the duplicate check on the
     rewritten query is what fires *)
  Alcotest.(check int) "original already carries one redundant edge" 1
    (Cqnf.redundancy (Cqnf.of_query ~catalog q))

let test_tampered_rewrite_rejected () =
  let catalog, _ = imdb () in
  let q, set, temp_cols, temp_name = step_args () in
  let q' = Reopt.rewrite q ~set ~temp_name ~temp_cols in
  (* dropping the surviving predicate changes the query's meaning *)
  let tampered = { q' with Query.preds = [] } in
  let findings =
    Equiv.check_step ~catalog ~original:q ~set ~temp_cols ~temp_name tampered
  in
  Alcotest.(check bool) "not-equivalent error reported" true
    (errors_with "rewrite-not-equivalent" findings);
  (* and a wrong temp-table shape is a shape error, not a crash *)
  let misshapen =
    { q' with Query.rels = [| q'.Query.rels.(Query.n_rels q' - 1) |] }
  in
  let findings =
    Equiv.check_step ~catalog ~original:q ~set ~temp_cols ~temp_name misshapen
  in
  Alcotest.(check bool) "shape error reported" true
    (errors_with "rewrite-shape" findings)

let () =
  Alcotest.run "rdb_verify"
    [
      ( "properties",
        [
          Alcotest.test_case "generated queries validate; self-joins appear"
            `Quick test_generator_valid;
          Alcotest.test_case "SQL unparse/parse/bind fixpoint" `Quick
            test_sql_fixpoint;
          Alcotest.test_case "canonicalization idempotent" `Quick
            test_canon_idempotent;
          Alcotest.test_case "canonicalization alias-invariant" `Quick
            test_alias_invariance;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "declared constraints hold on generated data"
            `Quick test_constraints_hold;
          Alcotest.test_case "true cardinalities inside derived bounds" `Quick
            test_bound_soundness;
          Alcotest.test_case "pessimistic clamping preserves results" `Quick
            test_clamp_preserves_results;
          QCheck_alcotest.to_alcotest test_matches_reference;
          Alcotest.test_case "bounds sound at 0 and 10 MCV slots" `Quick
            test_bounds_any_mcv_slots;
        ] );
      ( "rewrites",
        [
          Alcotest.test_case "genuine rewrite step proved equivalent" `Quick
            test_rewrite_proved;
          Alcotest.test_case "pre-fix duplicate-edge rewrite rejected" `Quick
            test_broken_rewrite_rejected;
          Alcotest.test_case "tampered rewrite rejected" `Quick
            test_tampered_rewrite_rejected;
        ] );
    ]
