module Relset = Rdb_util.Relset

(* Pair k is [(t.(2k), t.(2k+1))]. *)
type t = Relset.t array

let n_pairs t = Array.length t / 2

exception Bottom of int

(* The stdlib's [Array.sort] (OCaml 5.1, a ternary heap sort), specialised
   to ints that carry their sort key above bit 32 and compared on the key
   alone. It makes exactly the comparisons [Array.sort] makes on the same
   keys, so it produces the same permutation, ties included. *)
let heap_sort a =
  let key x = x lsr 32 in
  let maxson l i =
    let i31 = i + i + i + 1 in
    let x = ref i31 in
    if i31 + 2 < l then begin
      if key a.(i31) < key a.(i31 + 1) then x := i31 + 1;
      if key a.(!x) < key a.(i31 + 2) then x := i31 + 2;
      !x
    end
    else if i31 + 1 < l && key a.(i31) < key a.(i31 + 1) then i31 + 1
    else if i31 < l then i31
    else raise (Bottom i)
  in
  let rec trickledown l i e =
    let j = maxson l i in
    if key a.(j) > key e then begin
      a.(i) <- a.(j);
      trickledown l j e
    end
    else a.(i) <- e
  in
  let trickle l i e = try trickledown l i e with Bottom i -> a.(i) <- e in
  let rec bubbledown l i =
    let j = maxson l i in
    a.(i) <- a.(j);
    bubbledown l j
  in
  let bubble l i = try bubbledown l i with Bottom i -> i in
  let rec trickleup i e =
    let father = (i - 1) / 3 in
    if key a.(father) < key e then begin
      a.(i) <- a.(father);
      if father > 0 then trickleup father e else a.(0) <- e
    end
    else a.(i) <- e
  in
  let l = Array.length a in
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle l i a.(i)
  done;
  for i = l - 1 downto 2 do
    let e = a.(i) in
    a.(i) <- a.(0);
    trickleup (bubble i 0) e
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* The sort runs over the enumeration reversed: the order the pinned
   plans were produced from, so equal keys must start out in it. *)
let build graph =
  let buf = ref (Array.make 256 Relset.empty) and n = ref 0 in
  Dpccp.iter_pairs graph (fun s1 s2 ->
      if (2 * !n) + 2 > Array.length !buf then begin
        let bigger = Array.make (2 * Array.length !buf) Relset.empty in
        Array.blit !buf 0 bigger 0 (2 * !n);
        buf := bigger
      end;
      !buf.(2 * !n) <- s1;
      !buf.((2 * !n) + 1) <- s2;
      incr n);
  let buf = !buf and n = !n in
  let order =
    Array.init n (fun i ->
        let p = n - 1 - i in
        let su = Relset.union buf.(2 * p) buf.((2 * p) + 1) in
        (Relset.cardinal su lsl 32) lor p)
  in
  heap_sort order;
  let pairs = Array.make (2 * n) Relset.empty in
  Array.iteri
    (fun k packed ->
      let p = packed land 0xffff_ffff in
      pairs.(2 * k) <- buf.(2 * p);
      pairs.((2 * k) + 1) <- buf.((2 * p) + 1))
    order;
  pairs

let iter t f =
  for k = 0 to n_pairs t - 1 do
    f t.(2 * k) t.((2 * k) + 1)
  done
