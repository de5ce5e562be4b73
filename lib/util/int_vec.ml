type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () = { data = Array.make (Int.max 1 capacity) 0; len = 0 }

let length t = t.len

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (cap * 2) 0 in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t v =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let get t i =
  assert (i >= 0 && i < t.len);
  t.data.(i)

let set t i v =
  assert (i >= 0 && i < t.len);
  t.data.(i) <- v

let clear t = t.len <- 0

let to_array t = Array.sub t.data 0 t.len
