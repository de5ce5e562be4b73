type t = { lo : float; hi : float }

let point v = { lo = v; hi = v }
let make a b = if a <= b then { lo = a; hi = b } else { lo = b; hi = a }
let union a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let contains iv v =
  let slack x = (Float.abs x *. 1e-9) +. 0.5 in
  v >= iv.lo -. slack iv.lo && v <= iv.hi +. slack iv.hi

let width iv = iv.hi -. iv.lo

let ratio iv = Float.max 1.0 iv.hi /. Float.max 1.0 iv.lo

let rows_to_string v =
  if Float.abs v < 1e7 && Float.equal (Float.round v) v then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.3g" v

let to_string iv =
  Printf.sprintf "[%s, %s]" (rows_to_string iv.lo) (rows_to_string iv.hi)
