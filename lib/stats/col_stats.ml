type t = {
  row_count : int;
  null_frac : float;
  n_distinct : int;
  min_val : int option;
  max_val : int option;
  mcv : Mcv.t;
  hist : Histogram.t option;
}

let trivial ~row_count =
  {
    row_count;
    null_frac = 0.0;
    n_distinct = Int.max 1 row_count;
    min_val = None;
    max_val = None;
    mcv = Mcv.empty;
    hist = None;
  }

let pp fmt t =
  Format.fprintf fmt
    "rows=%d null_frac=%.3f n_distinct=%d mcvs=%d hist=%s"
    t.row_count t.null_frac t.n_distinct (Mcv.count t.mcv)
    (match t.hist with
     | Some h -> string_of_int (Histogram.n_buckets h) ^ " buckets"
     | None -> "none")
