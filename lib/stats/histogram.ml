type t = { bounds : int array }

let of_sorted ?(buckets = 100) sorted =
  let n = Array.length sorted in
  if n = 0 then None
  else begin
    let nb = Int.min buckets n in
    let bounds = Array.make (nb + 1) 0 in
    (* Boundary i sits at sorted rank round(i * n / nb), so each bucket
       covers ~n/nb rows. *)
    for i = 0 to nb do
      let rank = i * (n - 1) / nb in
      bounds.(i) <- sorted.(rank)
    done;
    Some { bounds }
  end

let build ?buckets values =
  let sorted = Array.copy values in
  Array.sort Int.compare sorted;
  of_sorted ?buckets sorted

let n_buckets t = Array.length t.bounds - 1

let bounds t = t.bounds

(* Fraction of a single bucket [lo, hi] that lies at or below v, assuming
   uniform spread inside the bucket. *)
let bucket_fraction_le lo hi v =
  if v < lo then 0.0
  else if v >= hi then 1.0
  else if hi = lo then 1.0
  else (float_of_int (v - lo) +. 1.0) /. (float_of_int (hi - lo) +. 1.0)

let fraction_le t v =
  let b = t.bounds in
  let nb = n_buckets t in
  if v < b.(0) then 0.0
  else if v >= b.(nb) then 1.0
  else begin
    (* Find the bucket containing v: largest i with b.(i) <= v. *)
    let lo = ref 0 and hi = ref (nb - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if b.(mid) <= v then lo := mid else hi := mid - 1
    done;
    let i = !lo in
    (float_of_int i +. bucket_fraction_le b.(i) b.(i + 1) v)
    /. float_of_int nb
  end

let fraction_between t ~lo ~hi =
  if hi < lo then 0.0
  else
    let below_lo = if lo = min_int then 0.0 else fraction_le t (lo - 1) in
    Float.max 0.0 (fraction_le t hi -. below_lo)
