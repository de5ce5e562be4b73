module Relset = Rdb_util.Relset
module Query = Rdb_query.Query
module Predicate = Rdb_query.Predicate
module Db_stats = Rdb_stats.Db_stats
module Col_stats = Rdb_stats.Col_stats
module Mcv = Rdb_stats.Mcv
module Plan = Rdb_plan.Plan
module Finding = Rdb_analysis.Finding

(* Sound [lo, hi] row-count intervals for every sub-join of a query,
   propagated bottom-up from three kinds of ground truth:

   - exact table row counts and ANALYZE statistics (this engine's ANALYZE
     is a full scan: null fractions, MCV counts and max frequencies are
     exact, guarded by a row-count freshness check);
   - declared unique keys: joining through a unique column cannot multiply
     cardinality, and an equality predicate on it matches at most one row;
   - declared foreign keys: a NOT NULL foreign key into an unfiltered
     parent joins every child row exactly once, preserving lower bounds.

   Upper bounds use key absorption: ub(S) <= ub(S \ r) * dup(r), where
   dup(r) is the largest number of r-rows any single join-key value can
   match — 1 for a unique column, the exact MCV max frequency otherwise.
   When removing r disconnects the rest, components multiply. *)

type t = {
  catalog : Catalog.t;
  stats : Db_stats.t;
  q : Query.t;
  memo : (Relset.t, float * float) Hashtbl.t;
}

let create ~catalog ~stats q = { catalog; stats; q; memo = Hashtbl.create 64 }

let table_of t rel = Catalog.table_exn t.catalog t.q.Query.rels.(rel).Query.table

(* Statistics for a column, only when provably describing the live table. *)
let fresh_stats t rel col =
  let tbl = table_of t rel in
  match Db_stats.col t.stats ~table:(Table.name tbl) ~col with
  | Some s when s.Col_stats.row_count = Table.nrows tbl -> Some s
  | Some _ | None -> None

let schema_of t rel = Table.schema (table_of t rel)

let ri f = int_of_float (Float.round f)

let null_count (s : Col_stats.t) =
  ri (s.Col_stats.null_frac *. float_of_int s.Col_stats.row_count)

let non_null (s : Col_stats.t) = s.Col_stats.row_count - null_count s

(* ANALYZE builds MCVs with 100 slots everywhere in this codebase; a list
   shorter than that provably holds every value occurring >= 2 times. *)
let mcv_slots = 100

let mcv_count (s : Col_stats.t) f = ri (f *. float_of_int (non_null s))

(* Largest number of rows sharing one non-NULL value of the column. *)
let max_frequency (s : Col_stats.t) =
  match Mcv.entries s.Col_stats.mcv with
  | (_, f) :: _ -> mcv_count s f
  | [] ->
    (* no value occurs twice (MCV keeps everything with count >= 2) *)
    if non_null s > 0 then 1 else 0

(* Rows matching [col = v]. *)
let eq_count t rel col v =
  let rows = Table.nrows (table_of t rel) in
  if Schema.is_unique (schema_of t rel) col then min 1 rows
  else
    match fresh_stats t rel col with
    | None -> rows
    | Some s ->
      (match Mcv.frequency s.Col_stats.mcv v with
       | Some f -> mcv_count s f
       | None ->
         let entries = Mcv.entries s.Col_stats.mcv in
         if List.length entries < mcv_slots then
           (* untruncated: any value outside the list occurs at most once *)
           min 1 (non_null s)
         else
           (* truncated: bounded by the smallest kept frequency *)
           (match List.rev entries with
            | (_, f) :: _ -> mcv_count s f
            | [] -> assert false))

(* Rows a single predicate can keep. *)
let pred_bound t rel (col, (p : Predicate.t)) =
  let rows = Table.nrows (table_of t rel) in
  let stats = fresh_stats t rel col in
  let nn = match stats with Some s -> non_null s | None -> rows in
  let empty_range lo hi =
    match stats with
    | Some { Col_stats.min_val = Some mn; max_val = Some mx; _ } ->
      mx < lo || mn > hi
    | _ -> false
  in
  match p with
  | Predicate.Is_null ->
    (match stats with Some s -> null_count s | None -> rows)
  | Predicate.Is_not_null -> nn
  | Predicate.Cmp (Predicate.Eq, v) -> eq_count t rel col v
  | Predicate.In_list vs ->
    let vs = List.sort_uniq Value.compare vs in
    min nn (List.fold_left (fun acc v -> acc + eq_count t rel col v) 0 vs)
  | Predicate.Cmp (Predicate.Ne, _) -> nn
  | Predicate.Cmp (op, Value.Int v) ->
    let lo, hi =
      match op with
      | Predicate.Lt -> (min_int, v - 1)
      | Predicate.Le -> (min_int, v)
      | Predicate.Gt -> (v + 1, max_int)
      | Predicate.Ge -> (v, max_int)
      | Predicate.Eq | Predicate.Ne -> assert false
    in
    if lo > hi || empty_range lo hi then 0 else nn
  | Predicate.Cmp (_, _) -> nn
  | Predicate.Between (lo, hi) ->
    if lo > hi || empty_range lo hi then 0 else nn
  | Predicate.Like _ -> nn

let scan_interval t rel =
  let rows = Table.nrows (table_of t rel) in
  match Query.preds_of_cols t.q rel with
  | [] -> (float_of_int rows, float_of_int rows)
  | preds ->
    let hi =
      List.fold_left (fun acc cp -> min acc (pred_bound t rel cp)) rows preds
    in
    (0.0, float_of_int hi)

(* Connected components of [s] under the query's join edges. *)
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

(* The connecting edge is a declared NOT NULL foreign key of [child_rel]
   into relation [r]'s unique key column: every child row joins exactly
   one r-row. *)
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
  | 0 -> invalid_arg "Card_bound.interval: empty set"
  | 1 -> scan_interval t (Relset.min_elt s)
  | _ ->
    let members = Relset.to_list s in
    (* Factors are floored at one row: the estimator clamps every subset
       estimate to >= 1 (as PostgreSQL does), so a provably-empty member
       still contributes one phantom row to its compositions. Mirroring
       that floor here only raises the bound — it stays a sound upper
       bound on the true cardinality — and keeps [estimate-exceeds-bound]
       findings indicative of real estimator violations rather than of
       the documented floor. *)
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
          let connecting =
            Query.edges_between t.q rest (Relset.singleton r)
          in
          let dup =
            List.fold_left
              (fun acc { Query.l = _; r = r_cr } ->
                let d =
                  if Schema.is_unique (schema_of t r_cr.Query.rel) r_cr.Query.col
                  then 1.0
                  else
                    match fresh_stats t r_cr.Query.rel r_cr.Query.col with
                    | Some st -> float_of_int (max_frequency st)
                    | None -> hi_r
                in
                Float.min acc d)
              hi_r connecting
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

let upper t s = snd (interval t s)

let clamp t s v =
  let lo, hi = interval t s in
  Float.max lo (Float.min v hi)

(* ---- plan checking ---- *)

let render_set t s =
  "{"
  ^ String.concat "," (Query.aliases t.q s)
  ^ "}"

(* Absolute slack of half a row plus relative epsilon: estimates that sit
   exactly on the bound (exact MCV counts reproduce the bound to the ulp)
   must not fire. The estimator also floors every estimate at 1.0, so an
   estimate of 1 against a provably-empty set is the floor, not an
   overestimate. *)
let above est bound = est > (Float.max bound 1.0 *. (1.0 +. 1e-6)) +. 0.5
let below est bound = est < (bound *. (1.0 -. 1e-6)) -. 0.5

let check_node t ~what s est =
  let lo, hi = interval t s in
  if above est hi then
    [ Finding.error ~code:"estimate-exceeds-bound"
        (Printf.sprintf
           "%s: %s %s estimates %.1f rows, above the provable upper bound \
            %.1f"
           t.q.Query.name what (render_set t s) est hi) ]
  else if below est lo then
    [ Finding.warning ~code:"estimate-below-bound"
        (Printf.sprintf
           "%s: %s %s estimates %.1f rows, below the provable lower bound \
            %.1f"
           t.q.Query.name what (render_set t s) est lo) ]
  else []

let check_plan t plan =
  let rec walk acc = function
    | Plan.Scan sc ->
      check_node t ~what:"scan" (Relset.singleton sc.Plan.scan_rel)
        sc.Plan.scan_est
      @ acc
    | Plan.Join j ->
      let acc = walk acc j.Plan.outer in
      let acc = walk acc j.Plan.inner in
      check_node t ~what:"join" (Plan.rel_set (Plan.Join j)) j.Plan.join_est
      @ acc
  in
  List.rev (walk [] plan)

(* ---- validating the constraint declarations against live data ---- *)

(* The bounds above are only as sound as the declared constraints; check
   them against the actual table contents (full scans, test/verify-sweep
   scale). *)
let check_constraints catalog =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  List.iter
    (fun tbl ->
      let name = Table.name tbl in
      let schema = Table.schema tbl in
      let nrows = Table.nrows tbl in
      let int_col c =
        match Table.column tbl c with
        | Column.Ints cells -> Some cells
        | Column.Strs _ -> None
      in
      let cell_null c row =
        match Table.column tbl c with
        | Column.Ints cells -> cells.(row) = Column.null_int
        | Column.Strs _ -> false
      in
      for c = 0 to Schema.arity schema - 1 do
        let cname = (Schema.column schema c).Schema.name in
        if Schema.is_not_null schema c then begin
          let nulls = ref 0 in
          for row = 0 to nrows - 1 do
            if cell_null c row then incr nulls
          done;
          if !nulls > 0 then
            add
              (Finding.error ~code:"constraint-not-null"
                 (Printf.sprintf "%s.%s declared NOT NULL but has %d NULLs"
                    name cname !nulls))
        end;
        if Schema.is_unique schema c then begin
          match int_col c with
          | None ->
            add
              (Finding.error ~code:"constraint-unique"
                 (Printf.sprintf
                    "%s.%s declared unique but is not an integer column"
                    name cname))
          | Some cells ->
            let seen = Hashtbl.create nrows in
            let dups = ref 0 in
            Array.iter
              (fun v ->
                if v <> Column.null_int then
                  if Hashtbl.mem seen v then incr dups
                  else Hashtbl.add seen v ())
              cells;
            if !dups > 0 then
              add
                (Finding.error ~code:"constraint-unique"
                   (Printf.sprintf
                      "%s.%s declared unique but has %d duplicate values"
                      name cname !dups))
        end;
        match Schema.fk_of schema c with
        | None -> ()
        | Some { Schema.ref_table; ref_col; _ } ->
          (match Catalog.table catalog ref_table with
           | None ->
             add
               (Finding.error ~code:"constraint-fk"
                  (Printf.sprintf "%s.%s references missing table %s" name
                     cname ref_table))
           | Some parent ->
             (match Schema.find (Table.schema parent) ref_col with
              | None ->
                add
                  (Finding.error ~code:"constraint-fk"
                     (Printf.sprintf "%s.%s references missing column %s.%s"
                        name cname ref_table ref_col))
              | Some pc ->
                (match int_col c, Table.column parent pc with
                 | Some child_cells, Column.Ints parent_cells ->
                   let domain = Hashtbl.create (Array.length parent_cells) in
                   Array.iter
                     (fun v ->
                       if v <> Column.null_int then Hashtbl.replace domain v ())
                     parent_cells;
                   let orphans = ref 0 in
                   Array.iter
                     (fun v ->
                       if v <> Column.null_int && not (Hashtbl.mem domain v)
                       then incr orphans)
                     child_cells;
                   if !orphans > 0 then
                     add
                       (Finding.error ~code:"constraint-fk"
                          (Printf.sprintf
                             "%s.%s has %d values missing from %s.%s" name
                             cname !orphans ref_table ref_col))
                 | _ ->
                   add
                     (Finding.error ~code:"constraint-fk"
                        (Printf.sprintf
                           "%s.%s foreign key must join integer columns" name
                           cname)))))
      done)
    (Catalog.tables catalog);
  List.rev !findings
