let now_ms () = Int64.to_float (Monotonic_clock.now ()) /. 1e6

let ms_since t0 = now_ms () -. t0
