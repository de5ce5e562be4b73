module Relset = Rdb_util.Relset
module Stat_utils = Rdb_util.Stat_utils
module Query = Rdb_query.Query
module Join_graph = Rdb_query.Join_graph
module Estimator = Rdb_card.Estimator
module Interval = Rdb_cost.Interval
module Plan = Rdb_plan.Plan
module Search_space = Rdb_plan.Search_space
module Db_stats = Rdb_stats.Db_stats
module Col_stats = Rdb_stats.Col_stats
module Mcv = Rdb_stats.Mcv
module Metrics = Rdb_obs.Metrics
module Json = Rdb_obs.Json

type bounds = Relset.t -> float * float

let trivial_bounds ~catalog (q : Query.t) : bounds =
 fun set ->
  let hi =
    List.fold_left
      (fun acc r ->
        let tbl = Catalog.table_exn catalog q.Query.rels.(r).Query.table in
        acc *. float_of_int (Table.nrows tbl))
      1.0 (Relset.to_list set)
  in
  (0.0, hi)

type transition = {
  tr_set : Relset.t;
  tr_aliases : string list;
  tr_est : float;
  tr_interval : float * float;
  tr_assumed : float;
  tr_temp_slots_hi : float;
  tr_shape_before : string;
  tr_shape_after : string;
  tr_useless : bool;
}

type reopt_report = {
  ro_threshold : float;
  ro_transitions : transition list;
  ro_predicted_replans : int;
  ro_stable : bool;
  ro_thrashing : (string * int * int) option;
  ro_temp_slots_hi : float;
}

type cert = {
  cert_shape : string;
  cert_mem : Interval.t;
  cert_work : Interval.t;
  cert_out : Interval.t;
  cert_replans_hi : int;
  cert_reopt : reopt_report option;
}

(* {1 MCV max-frequency}

   A sound per-value row-count bound for an (analyzed) column: the MCV
   list keeps the most frequent values occurring at least twice, so an
   unlisted value's count never exceeds the top listed count, and an
   empty complete list ({!Mcv.complete}: built with a slot to spare) on
   an analyzed column (histogram present) means no value occurs twice at
   all. An empty list built with no slots says nothing, so the bound
   falls back to the live row count. Rows appended after ANALYZE (guarded
   by the live vs. analyzed row-count delta) could each add one
   occurrence. [freq_bound ~key] bounds one value: its exact MCV count
   when listed, otherwise the least listed count (the list is sorted most
   frequent first). *)
let no_repeats (cs : Col_stats.t) =
  Option.is_some cs.Col_stats.hist && Mcv.complete cs.Col_stats.mcv

let freq_bound ?key stats tbl ~col =
  let live = float_of_int (Table.nrows tbl) in
  match Db_stats.col stats ~table:(Table.name tbl) ~col with
  | None -> live
  | Some cs ->
    let analyzed = float_of_int cs.Col_stats.row_count in
    let freqs = List.map snd (Mcv.entries cs.Col_stats.mcv) in
    let listed =
      match key with
      | None -> List.nth_opt freqs 0
      | Some k ->
        let f = Mcv.frequency cs.Col_stats.mcv (Value.Int k) in
        if Option.is_some f then f else List.nth_opt (List.rev freqs) 0
    in
    let bound =
      match listed with
      | Some f -> ceil (f *. analyzed)
      | None -> if no_repeats cs then 1.0 else live
    in
    Float.min live (bound +. Float.max 0.0 (live -. analyzed))

(* {1 The abstract interpreter}

   [Plan.Usage], the rule the executor charges, evaluated once with every
   input at its lower end and once at its upper end ([pick] is [fst] or
   [snd]). The rule is monotone, so the two corners bound each quantity
   exactly. The inputs are what a run counts: each node's output rows,
   from [bounds] (clamped non-negative and, for scans, to the table size),
   and the index fan-outs, bounded above by MCV frequencies and below by
   the rows they emit, each from a distinct candidate. *)
module U = Plan.Usage (Float)

type corner = { rows : float; slots : float; mem : float; work : float }

let interp ~bounds ~catalog ~stats (q : Query.t) plan =
  let table_of rel = Catalog.table_exn catalog q.Query.rels.(rel).Query.table in
  let rows_of set =
    let lo, hi = bounds set in
    let lo = Float.max 0.0 lo in
    (lo, Float.max lo hi)
  in
  let corner pick =
    let rec go = function
      | Plan.Scan s ->
        let tbl = table_of s.Plan.scan_rel in
        let n = float_of_int (Table.nrows tbl) in
        let lo, hi = rows_of (Relset.singleton s.Plan.scan_rel) in
        let lo = Float.min lo n and hi = Float.min hi n in
        let rows = pick (lo, hi) in
        let work =
          match s.Plan.access with
          | Plan.Seq_scan -> U.seq_scan ~table_rows:n
          | Plan.Index_scan { col; key } ->
            let key_hi = freq_bound ~key stats tbl ~col in
            U.lookup ~candidates:(pick (lo, Float.max lo key_hi))
        in
        let slots = U.slots ~rows ~width:1.0 in
        { rows; slots; mem = slots; work }
      | Plan.Join j as p ->
        let o = go j.Plan.outer and i = go j.Plan.inner in
        let set = Plan.rel_set p in
        let rows = pick (rows_of set) in
        let slots = U.slots ~rows ~width:(float_of_int (Relset.cardinal set)) in
        let fanout =
          match j.Plan.algo with
          | Plan.Index_nl { inner_col } ->
            let tbl = table_of (Plan.probed_rel j) in
            pick (rows, o.rows *. freq_bound stats tbl ~col:inner_col)
          | Plan.Hash_join | Plan.Nested_loop -> 0.0
        in
        {
          rows;
          slots;
          mem =
            U.join_peak j.Plan.algo ~outer_mem:o.mem ~outer_slots:o.slots
              ~inner_mem:i.mem ~inner_slots:i.slots ~inner_rows:i.rows
              ~out_slots:slots;
          work =
            U.join_work j.Plan.algo ~outer_work:o.work ~inner_work:i.work
              ~outer_rows:o.rows ~inner_rows:i.rows ~out:rows ~fanout;
        }
    in
    go plan
  in
  let lo = corner fst and hi = corner snd in
  let iv f = { Interval.lo = f lo; hi = f hi } in
  (iv (fun c -> c.mem), iv (fun c -> c.work), iv (fun c -> c.rows))

(* {1 Re-opt transition simulation}

   The real loop (Rdb_core.Reopt) materializes the triggered join, rewrites
   the query around the temp table and replans. Abstractly, the effect of a
   materialization on planning is that the set's cardinality becomes known:
   we confirm the triggered set at its worst admissible corner (a point
   envelope) and replan the *original* query with every confirmed subset
   pinned ({!Sensitivity.replan}). A confirmed set can never re-trigger (its
   estimate now equals its envelope), so every simulated step confirms a
   fresh subset and the trajectory terminates. *)

(* Upper bound on the materialized temp table's column count: Reopt keeps
   one representative per equivalence class of the crossing-edge endpoints
   inside the set plus the aggregate columns inside the set, so the
   distinct such columns bound it from above. *)
let temp_width_hi (q : Query.t) set =
  let inside (cr : Query.colref) = Relset.mem cr.Query.rel set in
  let crossing ({ l; r } : Query.edge) =
    match (inside l, inside r) with
    | true, false -> [ l ]
    | false, true -> [ r ]
    | _ -> []
  in
  let agg = function
    | Query.Count_star -> []
    | Query.Count_col cr | Query.Min_col cr | Query.Max_col cr
    | Query.Sum_col cr ->
      if inside cr then [ cr ] else []
  in
  let cols =
    List.concat_map crossing q.Query.edges @ List.concat_map agg q.Query.select
  in
  Int.max 1 (List.length (List.sort_uniq compare cols))

(* The first [(shape, i, j)], by [i] then [j], where shape [i] returns at
   [j] after some shape in between departed from it. *)
let detect_oscillation shapes =
  let arr = Array.of_list shapes in
  let n = Array.length arr in
  let rec departed i m =
    m > i && ((not (String.equal arr.(m) arr.(i))) || departed i (m - 1))
  in
  let rec find i j =
    if i >= n then None
    else if j >= n then find (i + 1) (i + 2)
    else if String.equal arr.(i) arr.(j) && departed i (j - 1) then
      Some (arr.(i), i, j)
    else find i (j + 1)
  in
  find 0 1

let simulate ~bounds ~threshold ~max_steps ~space ~catalog ~estimator
    (q : Query.t) plan0 =
  let space =
    match space with
    | Some s -> s
    | None -> Search_space.build (Join_graph.make q)
  in
  let envelope =
    Sensitivity.intersect (Sensitivity.q_envelope threshold)
      (Sensitivity.of_intervals bounds)
  in
  let replan confirmed =
    Metrics.incr "analysis.resource_replans";
    Sensitivity.replan ~space ~catalog ~estimator q confirmed
  in
  let confirmed = ref [] in
  let transitions = ref [] in
  let rec loop step plan =
    if step >= max_steps then false
    else begin
      let env s ~est =
        match
          List.find_opt (fun (s', _) -> Relset.equal s' s) !confirmed
        with
        | Some (_, c) -> (c, c)
        | None -> envelope s ~est
      in
      match
        Sensitivity.predict_trigger ~envelope:env ~threshold q plan
      with
      | None -> true
      | Some p ->
        let set = p.Sensitivity.pred_set in
        let est = p.Sensitivity.pred_est in
        let lo, hi = p.Sensitivity.pred_interval in
        let assumed =
          if
            Stat_utils.q_error ~est ~actual:lo
            >= Stat_utils.q_error ~est ~actual:hi
          then lo
          else hi
        in
        let corners =
          if Float.abs (hi -. lo) <= 1e-9 *. Float.max 1.0 (Float.abs hi) then
            [ lo ]
          else [ lo; hi ]
        in
        let replanned =
          List.map (fun c -> (c, replan ((set, c) :: !confirmed))) corners
        in
        let useless =
          List.for_all (fun (_, p') -> Plan.same_shape plan p') replanned
        in
        confirmed := (set, assumed) :: !confirmed;
        let plan' =
          match List.assoc_opt assumed replanned with
          | Some p' -> p'
          | None -> replan !confirmed
        in
        let _, bhi = bounds set in
        transitions :=
          {
            tr_set = set;
            tr_aliases = Query.aliases q set;
            tr_est = est;
            tr_interval = (lo, hi);
            tr_assumed = assumed;
            tr_temp_slots_hi =
              Float.max 0.0 bhi *. float_of_int (temp_width_hi q set);
            tr_shape_before = Plan.shape q plan;
            tr_shape_after = Plan.shape q plan';
            tr_useless = useless;
          }
          :: !transitions;
        loop (step + 1) plan'
    end
  in
  let stable = loop 0 plan0 in
  let transitions = List.rev !transitions in
  {
    ro_threshold = threshold;
    ro_transitions = transitions;
    ro_predicted_replans = List.length transitions;
    ro_stable = stable;
    ro_thrashing =
      detect_oscillation
        (Plan.shape q plan0
        :: List.map (fun t -> t.tr_shape_after) transitions);
    ro_temp_slots_hi =
      List.fold_left (fun acc t -> acc +. t.tr_temp_slots_hi) 0.0 transitions;
  }

(* [Rdb_core.Reopt.run]'s default step limit. *)
let reopt_max_steps = 32

let certify ?bounds ?(transitions = false) ?(threshold = 32.0) ?space
    ~catalog ~estimator (q : Query.t) plan =
  Metrics.incr "analysis.resource_certs";
  let bounds =
    match bounds with Some b -> b | None -> trivial_bounds ~catalog q
  in
  let stats = Estimator.db_stats estimator in
  let cert_mem, cert_work, cert_out = interp ~bounds ~catalog ~stats q plan in
  (* Each re-opt step materializes a join of >= 2 relations, so the
     rewritten query has at least one relation fewer; a single-relation
     query has no joins to trigger on. *)
  let replans_hi = Int.max 0 (Int.min reopt_max_steps (Query.n_rels q - 1)) in
  let cert_reopt =
    if not transitions then None
    else
      Some
        (simulate ~bounds ~threshold ~max_steps:replans_hi ~space ~catalog
           ~estimator q plan)
  in
  {
    cert_shape = Plan.shape q plan;
    cert_mem;
    cert_work;
    cert_out;
    cert_replans_hi = replans_hi;
    cert_reopt;
  }

let mem_hi cert = cert.cert_mem.Interval.hi

let findings ?budget (_q : Query.t) cert =
  let fs = ref [] in
  let add f = fs := f :: !fs in
  let malformed (i : Interval.t) =
    i.Interval.lo > i.Interval.hi || i.Interval.lo < 0.0
    || Float.is_nan i.Interval.lo || Float.is_nan i.Interval.hi
  in
  List.iter
    (fun (name, i) ->
      if malformed i then
        add
          (Finding.error ~code:"resource-cert-invalid"
             (Printf.sprintf "%s interval %s of plan %s is malformed" name
                (Interval.to_string i) cert.cert_shape)))
    [ ("memory", cert.cert_mem); ("work", cert.cert_work);
      ("output", cert.cert_out) ];
  (match budget with
  | Some b when mem_hi cert > b ->
    add
      (Finding.error ~code:"resource-over-budget"
         (Printf.sprintf
            "plan %s: certified peak memory %s row-slots exceeds the budget \
             of %s — admission control must reject or downgrade it"
            cert.cert_shape
            (Interval.to_string cert.cert_mem)
            (Interval.rows_to_string b)))
  | Some _ | None -> ());
  (match cert.cert_reopt with
  | None -> ()
  | Some ro ->
    (match ro.ro_thrashing with
    | Some (shape, i, j) ->
      add
        (Finding.warning ~code:"resource-thrashing"
           (Printf.sprintf
              "re-plan loop oscillates: shape %s at step %d is re-planned \
               back into at step %d (threshold %g) — re-optimization \
               thrashes instead of converging"
              shape i j ro.ro_threshold))
    | None -> ());
    List.iter
      (fun t ->
        if t.tr_useless then
          add
            (Finding.warning ~code:"resource-useless-materialization"
               (Printf.sprintf
                  "materializing join {%s} (est %s, plausible %s) cannot \
                   change the DP choice at any admissible cardinality — \
                   the trigger would pay up to %s temp cells for nothing"
                  (String.concat "," t.tr_aliases)
                  (Interval.rows_to_string t.tr_est)
                  (let lo, hi = t.tr_interval in
                   Interval.to_string { Interval.lo; hi })
                  (Interval.rows_to_string t.tr_temp_slots_hi))))
      ro.ro_transitions);
  if not (List.exists (fun f -> f.Finding.severity = Finding.Error) !fs) then
    add
      (Finding.info ~code:"resource-certificate"
         (Printf.sprintf
            "plan %s: peak memory %s row-slots, work %s units, output %s \
             rows, at most %d replans%s"
            cert.cert_shape (Interval.to_string cert.cert_mem)
            (Interval.to_string cert.cert_work)
            (Interval.to_string cert.cert_out)
            cert.cert_replans_hi
            (match cert.cert_reopt with
            | Some ro ->
              Printf.sprintf " (%d predicted%s)" ro.ro_predicted_replans
                (if ro.ro_stable then ", stable" else "")
            | None -> "")));
  List.rev !fs

let check ~catalog ~estimator q plan =
  findings q (certify ~catalog ~estimator q plan)

let json_interval (i : Interval.t) =
  Json.Obj [ ("lo", Json.Float i.Interval.lo); ("hi", Json.Float i.Interval.hi) ]

let envelope_fields cert =
  [
    ("shape", Json.Str cert.cert_shape);
    ("mem", json_interval cert.cert_mem);
    ("work", json_interval cert.cert_work);
    ("out", json_interval cert.cert_out);
    ("replans_hi", Json.Int cert.cert_replans_hi);
  ]

let to_json cert =
  let transition t =
    Json.Obj
      [
        ("aliases", Json.List (List.map (fun a -> Json.Str a) t.tr_aliases));
        ("est", Json.Float t.tr_est);
        ("interval_lo", Json.Float (fst t.tr_interval));
        ("interval_hi", Json.Float (snd t.tr_interval));
        ("assumed", Json.Float t.tr_assumed);
        ("temp_slots_hi", Json.Float t.tr_temp_slots_hi);
        ("shape_before", Json.Str t.tr_shape_before);
        ("shape_after", Json.Str t.tr_shape_after);
        ("useless", Json.Bool t.tr_useless);
      ]
  in
  Json.Obj
    (envelope_fields cert
    @
    match cert.cert_reopt with
    | None -> []
    | Some ro ->
      [
        ( "reopt",
          Json.Obj
            [
              ("threshold", Json.Float ro.ro_threshold);
              ("predicted_replans", Json.Int ro.ro_predicted_replans);
              ("stable", Json.Bool ro.ro_stable);
              ( "thrashing",
                match ro.ro_thrashing with
                | None -> Json.Null
                | Some (shape, i, j) ->
                  Json.Obj
                    [
                      ("shape", Json.Str shape);
                      ("first", Json.Int i);
                      ("again", Json.Int j);
                    ] );
              ("temp_slots_hi", Json.Float ro.ro_temp_slots_hi);
              ( "transitions",
                Json.List (List.map transition ro.ro_transitions) );
            ] );
      ])
