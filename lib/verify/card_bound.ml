module Relset = Rdb_util.Relset
module Query = Rdb_query.Query
module Predicate = Rdb_query.Predicate
module Db_stats = Rdb_stats.Db_stats
module Col_stats = Rdb_stats.Col_stats
module Mcv = Rdb_stats.Mcv
module Plan = Rdb_plan.Plan
module Finding = Rdb_analysis.Finding

(* Sound [lo, hi] row-count intervals for every sub-join of a query, from
   exact statistics, declared unique keys and declared NOT NULL foreign
   keys (see the interface). Upper bounds use key absorption:
   ub(S) <= ub(S \ r) * dup(r), where dup(r) is the largest number of
   r-rows any single join-key value can match — 1 for a unique column, the
   exact MCV max frequency otherwise. When removing r disconnects the
   rest, components multiply. *)

(* What every peel reads about one relation, built once per context on
   first use: its scan interval, its neighbours, and per incident edge
   (self-edges excluded, in edge order) the other end, the edge's dup
   factor and whether the other end is a safe foreign key into it. *)
type rel_facts = {
  scan : float * float;
  no_preds : bool;
  nbrs : Relset.t;
  incident : (int * float * bool) list;
}

module Memo = Hashtbl.Make (Relset)

type t = {
  catalog : Catalog.t;
  stats : Db_stats.t;
  q : Query.t;
  memo : (float * float) Memo.t;
  (* @confined a context is used by one domain at a time *)
  mutable facts : rel_facts array option;
}

let create ~catalog ~stats q =
  { catalog; stats; q; memo = Memo.create 64; facts = None }

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

let mcv_count (s : Col_stats.t) f = ri (f *. float_of_int (non_null s))

(* Most rows one non-NULL value outside the MCV list can have: one when
   the list is complete, else the smallest kept count. *)
let unlisted_max (s : Col_stats.t) =
  if Mcv.complete s.Col_stats.mcv then min 1 (non_null s)
  else
    match List.rev (Mcv.entries s.Col_stats.mcv) with
    | (_, f) :: _ -> mcv_count s f
    | [] -> non_null s

(* Largest number of rows sharing one non-NULL value of the column. *)
let max_frequency (s : Col_stats.t) =
  match Mcv.entries s.Col_stats.mcv with
  | (_, f) :: _ -> mcv_count s f
  | [] -> unlisted_max s

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
       | None -> unlisted_max s)

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

let build_facts t =
  Array.init (Query.n_rels t.q) (fun r ->
      let scan = scan_interval t r in
      let dup (r_cr : Query.colref) =
        if Schema.is_unique (schema_of t r) r_cr.Query.col then 1.0
        else
          match fresh_stats t r r_cr.Query.col with
          | Some st -> float_of_int (max_frequency st)
          | None -> snd scan
      in
      let incident =
        List.map
          (fun { Query.l; r = r_cr } ->
            (l.Query.rel, dup r_cr, fk_edge_safe t ~child_cr:l ~r_cr))
          (Query.edges_between t.q
             (Relset.remove r (Query.all_rels t.q))
             (Relset.singleton r))
      in
      {
        scan;
        no_preds = Query.preds_of_cols t.q r = [];
        nbrs = Relset.of_list (List.map (fun (o, _, _) -> o) incident);
        incident;
      })

(* Connected components of [s], each grown by a bitset flood fill from
   the smallest member not yet covered, in ascending order of that seed. *)
let components facts s =
  let rec grow comp frontier =
    if Relset.is_empty frontier then comp
    else begin
      let r = Relset.min_elt frontier in
      let fresh = Relset.diff (Relset.inter facts.(r).nbrs s) comp in
      grow (Relset.union comp fresh)
        (Relset.union (Relset.remove r frontier) fresh)
    end
  in
  let rec split remaining acc =
    if Relset.is_empty remaining then List.rev acc
    else begin
      let seed = Relset.singleton (Relset.min_elt remaining) in
      let comp = grow seed seed in
      split (Relset.diff remaining comp) (comp :: acc)
    end
  in
  split s []

let rec interval t s =
  match Memo.find_opt t.memo s with
  | Some iv -> iv
  | None ->
    let iv = compute t s in
    Memo.replace t.memo s iv;
    iv

(* Factors are floored at one row, mirroring the estimator's own 1-row
   floor: that only raises the bound, and keeps [estimate-exceeds-bound]
   findings about real estimator violations. *)
and compute t s =
  let facts =
    match t.facts with
    | Some f -> f
    | None ->
      let f = build_facts t in
      t.facts <- Some f;
      f
  in
  match Relset.cardinal s with
  | 0 -> invalid_arg "Card_bound.interval: empty set"
  | 1 -> facts.(Relset.min_elt s).scan
  | _ ->
    let lo, hi =
      Relset.fold
        (fun r (lo, hi) ->
          let f = facts.(r) in
          let rest = Relset.remove r s in
          let comps = components facts rest in
          let base =
            List.fold_left
              (fun acc comp -> acc *. Float.max 1.0 (snd (interval t comp)))
              1.0 comps
          in
          let dup, into, safe =
            List.fold_left
              (fun ((dup, into, _) as acc) (other, d, safe) ->
                if Relset.mem other rest then (Float.min dup d, into + 1, safe)
                else acc)
              (snd f.scan, 0, false) f.incident
          in
          let lo =
            match comps with
            | [ _ ] when f.no_preds && into = 1 && safe ->
              Float.max lo (fst (interval t rest))
            | _ -> lo
          in
          (lo, Float.min hi (base *. Float.max 1.0 dup)))
        s (0.0, infinity)
    in
    (Float.min lo hi, hi)

let clamp t s v =
  let lo, hi = interval t s in
  Float.max lo (Float.min v hi)

(* ---- plan checking ---- *)

let render_set t s = "{" ^ String.concat "," (Query.aliases t.q s) ^ "}"

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
      for c = 0 to Schema.arity schema - 1 do
        let cname = (Schema.column schema c).Schema.name in
        if Schema.is_not_null schema c then begin
          let nulls =
            match int_col c with
            | Some cells ->
              Array.fold_left
                (fun n v -> if v = Column.null_int then n + 1 else n) 0 cells
            | None -> 0
          in
          if nulls > 0 then
            add
              (Finding.error ~code:"constraint-not-null"
                 (Printf.sprintf "%s.%s declared NOT NULL but has %d NULLs"
                    name cname nulls))
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
