module Relset = Rdb_util.Relset
module Query = Rdb_query.Query
module Predicate = Rdb_query.Predicate
module Plan = Rdb_plan.Plan
module Estimator = Rdb_card.Estimator

let err = Finding.error

let free_operators =
  {
    Rdb_cost.Cost_model.cpu_tuple_cost = 0.0;
    cpu_operator_cost = 0.0;
    cpu_index_tuple_cost = 0.0;
    index_lookup_cost = 0.0;
    hash_build_cost = 0.0;
  }

(* Estimates must be reproducible exactly: the estimator caches per relation
   subset, so re-querying it returns the very floats the plan was built
   from. The epsilon only forgives the printing/re-reading of a float, not a
   stale estimate. *)
let same_estimate a b =
  Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check ~catalog ?estimator (q : Query.t) (plan : Plan.t) =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let n = Query.n_rels q in
  let render_set s =
    "{"
    ^ String.concat ","
        (List.map
           (fun i ->
             if i >= 0 && i < n then Query.rel_alias q i
             else Printf.sprintf "rel%d" i)
           (Relset.to_list s))
    ^ "}"
  in
  (* The root must cover the query exactly. *)
  let root_set = Plan.rel_set plan in
  if not (Relset.equal root_set (Relset.full n)) then
    add
      (err ~code:"root-relset"
         (Printf.sprintf
            "plan covers %s but the query has relations %s" (render_set root_set)
            (render_set (Relset.full n))));
  let edge_str (e : Query.edge) =
    Printf.sprintf "rel%d.col%d = rel%d.col%d" e.Query.l.Query.rel
      e.Query.l.Query.col e.Query.r.Query.rel e.Query.r.Query.col
  in
  let rec walk node =
    match node with
    | Plan.Scan s ->
      let rel = s.Plan.scan_rel in
      if rel < 0 || rel >= n then
        add
          (err ~code:"scan-rel-range"
             (Printf.sprintf "scan of relation index %d out of range" rel))
      else begin
        (match s.Plan.access with
         | Plan.Seq_scan -> ()
         | Plan.Index_scan { col; key } ->
           let table = q.Query.rels.(rel).Query.table in
           (match Catalog.index catalog ~table ~col with
            | None ->
              add
                (err ~code:"no-such-index"
                   (Printf.sprintf
                      "index scan of %s (%s) uses column %d, which has no \
                       index"
                      (Query.rel_alias q rel) table col))
            | Some _ -> ());
           let keyed =
             List.exists
               (fun ({ Query.target; p } : Query.pred) ->
                 target.Query.rel = rel && target.Query.col = col
                 && p = Predicate.Cmp (Predicate.Eq, Value.Int key))
               q.Query.preds
           in
           if not keyed then
             add
               (err ~code:"index-key-mismatch"
                  (Printf.sprintf
                     "index scan of %s probes col%d = %d but the query has \
                      no such equality predicate"
                     (Query.rel_alias q rel) col key)));
        (match estimator with
         | Some est ->
           let fresh = Estimator.base_card est rel in
           if not (same_estimate s.Plan.scan_est fresh) then
             add
               (err ~code:"stale-estimate"
                  (Printf.sprintf
                     "scan of %s carries estimate %g but the estimator says \
                      %g"
                     (Query.rel_alias q rel) s.Plan.scan_est fresh))
         | None -> ())
      end;
      if not (Float.is_finite s.Plan.scan_cost) || s.Plan.scan_cost < 0.0 then
        add
          (err ~code:"cost-not-finite"
             (Printf.sprintf "scan of relation %d has cost %g" rel
                s.Plan.scan_cost))
    | Plan.Join j ->
      let outer_set = Plan.rel_set j.Plan.outer
      and inner_set = Plan.rel_set j.Plan.inner in
      let su = Relset.union outer_set inner_set in
      if not (Relset.is_empty (Relset.inter outer_set inner_set)) then
        add
          (err ~code:"overlapping-subtrees"
             (Printf.sprintf "join subtrees %s and %s overlap"
                (render_set outer_set) (render_set inner_set)));
      (* Edge sides: [l] must come from the outer subtree, [r] from the
         inner one. *)
      List.iter
        (fun (e : Query.edge) ->
          if
            not
              (Relset.mem e.Query.l.Query.rel outer_set
               && Relset.mem e.Query.r.Query.rel inner_set)
          then
            add
              (err ~code:"edge-outside-subtree"
                 (Printf.sprintf
                    "join of %s with %s carries edge %s whose columns are \
                     not available in its subtrees"
                    (render_set outer_set) (render_set inner_set)
                    (edge_str e))))
        j.Plan.join_edges;
      (* Edge completeness: exactly the query's crossing edges. *)
      if Relset.is_empty (Relset.inter outer_set inner_set) then begin
        let expected =
          List.sort compare (Query.edges_between q outer_set inner_set)
        in
        let actual = List.sort compare j.Plan.join_edges in
        if expected <> actual then begin
          let missing =
            List.filter (fun e -> not (List.mem e actual)) expected
          and extra =
            List.filter (fun e -> not (List.mem e expected)) actual
          in
          List.iter
            (fun e ->
              add
                (err ~code:"missing-join-edge"
                   (Printf.sprintf
                      "join of %s with %s drops the query's edge %s"
                      (render_set outer_set) (render_set inner_set)
                      (edge_str e))))
            missing;
          List.iter
            (fun e ->
              add
                (err ~code:"foreign-join-edge"
                   (Printf.sprintf
                      "join of %s with %s carries edge %s that is not a \
                       crossing edge of the query"
                      (render_set outer_set) (render_set inner_set)
                      (edge_str e))))
            extra
        end
      end;
      (* Index nested loop: single base inner with a real index, keyed by
         the first edge. *)
      (match j.Plan.algo with
       | Plan.Index_nl { inner_col } ->
         (match j.Plan.inner with
          | Plan.Scan s when s.Plan.scan_rel >= 0 && s.Plan.scan_rel < n ->
            let table = q.Query.rels.(s.Plan.scan_rel).Query.table in
            (match Catalog.index catalog ~table ~col:inner_col with
             | None ->
               add
                 (err ~code:"no-such-index"
                    (Printf.sprintf
                       "index nested loop probes %s.col%d, which has no index"
                       (Query.rel_alias q s.Plan.scan_rel) inner_col))
             | Some _ -> ());
            (match j.Plan.join_edges with
             | e :: _ when e.Query.r.Query.col = inner_col -> ()
             | e :: _ ->
               add
                 (err ~code:"inl-key-mismatch"
                    (Printf.sprintf
                       "index nested loop declares inner column %d but its \
                        first edge is %s"
                       inner_col (edge_str e)))
             | [] ->
               add
                 (err ~code:"inl-key-mismatch"
                    "index nested loop join has no join edges"))
          | _ ->
            add
              (err ~code:"inl-inner-not-base"
                 "index nested loop inner input is not a single base \
                  relation"))
       | Plan.Hash_join | Plan.Nested_loop -> ());
      (* Estimates. A corrupted plan can cover a disconnected subset the
         estimator refuses to price; the structural findings above already
         explain it, so record the refusal rather than aborting the lint. *)
      (match estimator with
       | Some est ->
         (match Estimator.card est su with
          | fresh ->
            if not (same_estimate j.Plan.join_est fresh) then
              add
                (err ~code:"stale-estimate"
                   (Printf.sprintf
                      "join %s carries estimate %g but the estimator says %g"
                      (render_set su) j.Plan.join_est fresh))
          | exception Invalid_argument _ ->
            add
              (err ~code:"estimate-unavailable"
                 (Printf.sprintf
                    "join %s covers a set the estimator cannot price"
                    (render_set su))))
       | None -> ());
      (* Costs: finite and at least the inputs' cost the join rule adds
         its operator to — under all-zero parameters every operator is
         free, which leaves exactly that floor (the outer alone for an
         index nested loop, whose index probes replace the inner). *)
      let cost = j.Plan.join_cost in
      if not (Float.is_finite cost) || cost < 0.0 then
        add
          (err ~code:"cost-not-finite"
             (Printf.sprintf "join %s has cost %g" (render_set su) cost))
      else begin
        (* Free operators price no predicate, so none need counting. *)
        let floor =
          Plan.join_cost free_operators ~npreds:(fun _ -> 0) j.Plan.algo
            ~inner:j.Plan.inner
            ~edges:j.Plan.join_edges ~outer_rows:0.0 ~inner_rows:0.0 ~out:0.0
            ~outer_cost:(Plan.cost j.Plan.outer)
            ~inner_cost:(Plan.cost j.Plan.inner)
        in
        if cost +. 1e-6 *. Float.max 1.0 floor < floor then
          add
            (err ~code:"cost-not-monotone"
               (Printf.sprintf
                  "join %s costs %g, less than its inputs' %g"
                  (render_set su) cost floor))
      end;
      walk j.Plan.outer;
      walk j.Plan.inner
  in
  walk plan;
  List.rev !findings
