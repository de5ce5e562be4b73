type t = int array

let create n = Array.init n Fun.id

let rec find t i =
  let p = t.(i) in
  if p = i then i
  else begin
    let r = find t p in
    t.(i) <- r;
    r
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra = rb then false
  else begin
    if ra < rb then t.(rb) <- ra else t.(ra) <- rb;
    true
  end
