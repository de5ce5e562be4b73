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
