module Col_stats = Rdb_stats.Col_stats
module Mcv = Rdb_stats.Mcv
module Histogram = Rdb_stats.Histogram
module Predicate = Rdb_query.Predicate

(* Fallback equality selectivity when statistics offer nothing. *)
let default_eq = 0.005

(* PostgreSQL's DEFAULT_INEQ_SEL. *)
let default_range = 0.3333333333333333

(* PostgreSQL's DEFAULT_MATCH_SEL, used for LIKE patterns. *)
let default_match = 0.005

let clamp = Rdb_util.Stat_utils.clamp ~lo:0.0 ~hi:1.0

(* var = v: MCV frequency when listed, otherwise the non-MCV mass spread
   uniformly over the remaining distinct values (PostgreSQL's var_eq_const). *)
let eq_sel (s : Col_stats.t) v =
  match Mcv.frequency s.mcv v with
  | Some f -> f
  | None ->
    let others = s.n_distinct - Mcv.count s.mcv in
    if others <= 0 then default_eq
    else
      let remaining_mass =
        1.0 -. s.null_frac -. Mcv.total_fraction s.mcv
      in
      clamp (remaining_mass /. float_of_int others)

let range_sel (s : Col_stats.t) op v =
  match v, s.hist with
  | Value.Int i, Some hist ->
    let frac_le = Histogram.fraction_le hist i in
    let frac_lt = if i = min_int then 0.0 else Histogram.fraction_le hist (i - 1) in
    let base =
      match op with
      | Predicate.Lt -> frac_lt
      | Predicate.Le -> frac_le
      | Predicate.Gt -> 1.0 -. frac_le
      | Predicate.Ge -> 1.0 -. frac_lt
      | Predicate.Eq | Predicate.Ne -> assert false
    in
    clamp (base *. (1.0 -. s.null_frac))
  | _ -> default_range

let like_sel (s : Col_stats.t) shape =
  (* Sum the frequencies of matching MCVs; charge the non-MCV remainder the
     default pattern selectivity. Without string histograms this is the best
     a PostgreSQL-style estimator can do, and it is suitably fallible. *)
  let mcv_match =
    List.fold_left
      (fun acc (v, f) ->
        match v with
        | Value.Str str when Predicate.like_holds shape str -> acc +. f
        | Value.Str _ | Value.Int _ | Value.Null -> acc)
      0.0
      (Mcv.entries s.mcv)
  in
  let residual = 1.0 -. s.null_frac -. Mcv.total_fraction s.mcv in
  clamp (mcv_match +. (Float.max 0.0 residual *. default_match))

let of_pred (s : Col_stats.t) (p : Predicate.t) =
  match p with
  | Predicate.Cmp (Predicate.Eq, v) -> clamp (eq_sel s v)
  | Predicate.Cmp (Predicate.Ne, v) ->
    clamp (1.0 -. s.null_frac -. eq_sel s v)
  | Predicate.Cmp (((Predicate.Lt | Predicate.Le | Predicate.Gt | Predicate.Ge) as op), v) ->
    range_sel s op v
  | Predicate.Between (lo, hi) ->
    (match s.hist with
     | Some hist ->
       clamp (Histogram.fraction_between hist ~lo ~hi *. (1.0 -. s.null_frac))
     | None -> clamp (default_range *. default_range))
  | Predicate.In_list vs ->
    (* A value listed twice still matches its rows once. The first
       occurrences keep their order, so the sum over a list without
       repeats is unchanged to the last bit. *)
    let distinct =
      List.rev
        (List.fold_left
           (fun seen v ->
             if List.exists (fun u -> Value.compare u v = 0) seen then seen
             else v :: seen)
           [] vs)
    in
    clamp (List.fold_left (fun acc v -> acc +. eq_sel s v) 0.0 distinct)
  | Predicate.Like shape -> like_sel s shape
  | Predicate.Is_null -> clamp s.null_frac
  | Predicate.Is_not_null -> clamp (1.0 -. s.null_frac)

let of_preds stats preds =
  List.fold_left2 (fun acc s p -> acc *. of_pred s p) 1.0 stats preds
