module Query = Rdb_query.Query
module Session = Rdb_core.Session
module Feedback = Rdb_core.Feedback
module Estimator = Rdb_card.Estimator
module Optimizer = Rdb_plan.Optimizer
module Metrics = Rdb_obs.Metrics

type row = {
  fs_query : string;
  fs_rels : int;
  fs_default : Runner.measurement;
  fs_naive : Runner.measurement;
  fs_gated : Runner.measurement;
  fs_perfect : Runner.measurement;
}

type report = {
  fr_perfect_n : int;
  fr_reopt_learn : float;
  fr_store_size : int;
  fr_rows : row list;
  fr_naive_regressions : (string * float) list;
  fr_naive_improvements : (string * float) list;
  fr_gated_regressions : (string * float) list;
  fr_gated_improvements : (string * float) list;
  fr_default_pairs : int;
  fr_naive_pairs : int;
  fr_gated_pairs : int;
  fr_naive_lookups : int;
  fr_lookup_bound : int;
}

(* "Materially worse": a capped run where the baseline finished, or at
   least 1.5x the baseline's deterministic work with an absolute gap big
   enough that tiny queries can't trip it on noise-scale differences. *)
let material_ratio = 1.5
let material_floor = 50_000

let work_ratio (m : Runner.measurement) (d : Runner.measurement) =
  float_of_int m.Runner.m_work /. float_of_int (max 1 d.Runner.m_work)

let materially_worse (m : Runner.measurement) (d : Runner.measurement) =
  if m.Runner.m_capped then not d.Runner.m_capped
  else
    (not d.Runner.m_capped)
    && work_ratio m d >= material_ratio
    && m.Runner.m_work - d.Runner.m_work >= material_floor

let materially_better (m : Runner.measurement) (d : Runner.measurement) =
  materially_worse d m

(* Planning-work accounting: plan every query once per mode and sum the
   DPccp pair counter. Enumeration is estimate-independent, so feedback
   modes must enumerate exactly as many pairs as the default — the
   regression this guards against is an eager subset sweep creeping back
   into the lookup path. *)
let count_pairs lab mode_of =
  List.fold_left
    (fun acc q ->
      let prepared = Runner.prepared_of lab q in
      let _plan, pstats, _ = Session.plan prepared ~mode:(mode_of prepared) in
      acc + pstats.Optimizer.pairs_considered)
    0 (Runner.queries lab)

let run ?(jobs = 1) ?(perfect_n = 4) ?(reopt_learn = 32.0) lab =
  let fb = Runner.feedback lab in
  Feedback.set_frozen fb false;
  (* Learning passes: the plain default workload, then a re-optimizing
     pass whose materializations pay for — and remember — true
     cardinalities of exactly the sub-joins the default estimator gets
     most wrong. *)
  ignore (Runner.run_grid ~jobs lab [ Runner.Default ]);
  ignore (Runner.run_grid ~jobs lab [ Runner.Reopt reopt_learn ]);
  (* Freeze before anything plans from the store: measured plan choices
     must depend only on what the learning passes recorded, never on the
     order measurement cells execute in. *)
  Feedback.set_frozen fb true;
  let default_pairs = count_pairs lab (fun _ -> Estimator.Default) in
  let before_naive = Metrics.snapshot () in
  let naive_pairs =
    count_pairs lab (fun prepared -> Session.feedback_mode prepared fb)
  in
  let after_naive = Metrics.snapshot () in
  let naive_lookups =
    Metrics.counter after_naive "feedback.lookups"
    - Metrics.counter before_naive "feedback.lookups"
  in
  let total_rels =
    List.fold_left (fun acc q -> acc + Query.n_rels q) 0 (Runner.queries lab)
  in
  (* Each memoized subset probes the store at most once; the memo holds
     at most one entry per enumerated pair plus the base relations. *)
  let lookup_bound = (2 * naive_pairs) + (2 * total_rels) in
  let gated_pairs =
    count_pairs lab (fun prepared -> Session.feedback_mode ~gated:true prepared fb)
  in
  let cells =
    Runner.run_grid ~jobs lab
      [
        Runner.Default;
        Runner.Feedback_naive;
        Runner.Feedback_gated;
        Runner.Perfect perfect_n;
      ]
  in
  let column c = Array.of_list (List.assoc c cells) in
  let naive = column Runner.Feedback_naive
  and gated = column Runner.Feedback_gated
  and perfect = column (Runner.Perfect perfect_n) in
  let rows =
    List.mapi
      (fun i (d : Runner.measurement) ->
        {
          fs_query = d.Runner.m_query;
          fs_rels = d.Runner.m_rels;
          fs_default = d;
          fs_naive = naive.(i);
          fs_gated = gated.(i);
          fs_perfect = perfect.(i);
        })
      (List.assoc Runner.Default cells)
  in
  let classify get =
    List.fold_left
      (fun (worse, better) r ->
        let m = get r in
        if materially_worse m r.fs_default then
          ((r.fs_query, work_ratio m r.fs_default) :: worse, better)
        else if materially_better m r.fs_default then
          (worse, (r.fs_query, work_ratio m r.fs_default) :: better)
        else (worse, better))
      ([], []) rows
    |> fun (w, b) -> (List.rev w, List.rev b)
  in
  let naive_worse, naive_better = classify (fun r -> r.fs_naive) in
  let gated_worse, gated_better = classify (fun r -> r.fs_gated) in
  {
    fr_perfect_n = perfect_n;
    fr_reopt_learn = reopt_learn;
    fr_store_size = Feedback.size fb;
    fr_rows = rows;
    fr_naive_regressions = naive_worse;
    fr_naive_improvements = naive_better;
    fr_gated_regressions = gated_worse;
    fr_gated_improvements = gated_better;
    fr_default_pairs = default_pairs;
    fr_naive_pairs = naive_pairs;
    fr_gated_pairs = gated_pairs;
    fr_naive_lookups = naive_lookups;
    fr_lookup_bound = lookup_bound;
  }

type totals = { t_work : int; t_capped : int }
type check = { name : string; key : string; ok : bool; detail : string }

type verdict = {
  v_default : totals;
  v_naive : totals;
  v_gated : totals;
  v_perfect : totals;
  v_checks : check list;
}

let verdict r =
  let totals get =
    List.fold_left
      (fun t row ->
        let m : Runner.measurement = get row in
        { t_work = t.t_work + m.Runner.m_work;
          t_capped = t.t_capped + Bool.to_int m.Runner.m_capped })
      { t_work = 0; t_capped = 0 } r.fr_rows
  in
  let check name ok detail =
    { name; key = String.map (fun c -> if c = '-' then '_' else c) name; ok;
      detail }
  in
  let regressions l = Printf.sprintf "%d regressions" (List.length l) in
  {
    v_default = totals (fun row -> row.fs_default);
    v_naive = totals (fun row -> row.fs_naive);
    v_gated = totals (fun row -> row.fs_gated);
    v_perfect = totals (fun row -> row.fs_perfect);
    v_checks =
      [ check "dp-pairs-identical"
          (r.fr_naive_pairs = r.fr_default_pairs
           && r.fr_gated_pairs = r.fr_default_pairs)
          (Printf.sprintf "%d/%d/%d" r.fr_default_pairs r.fr_naive_pairs
             r.fr_gated_pairs);
        check "lookups-within-demand-bound"
          (r.fr_naive_lookups <= r.fr_lookup_bound)
          (Printf.sprintf "%d <= %d" r.fr_naive_lookups r.fr_lookup_bound);
        check "gated-never-materially-worse"
          (r.fr_gated_regressions = [])
          (regressions r.fr_gated_regressions);
        check "naive-corrections-hurt-somewhere"
          (r.fr_naive_regressions <> [])
          (regressions r.fr_naive_regressions) ];
  }

let passed v = List.for_all (fun c -> c.ok) v.v_checks
