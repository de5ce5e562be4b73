(* Open addressing over int keys, linear probing, at most half full.
   [keys.(s)] is slot [s]'s key, or [empty] (the NULL sentinel, which is
   never indexed). The rows are grouped by key in one flat array, CSR
   style: slot [s]'s rows are [rows.(starts.(s))] to
   [rows.(starts.(s + 1) - 1)], ascending, so an empty slot has an empty
   range and [starts] needs one cell beyond the capacity. *)
type t = { keys : int array; starts : int array; rows : int array; n_keys : int }

let empty = Column.null_int

(* Join keys are mostly dense ids: folding the high bits into the low ones
   keeps neighbouring keys in neighbouring slots, so probes in key order
   walk memory in order, while power-of-two strides still spread out
   ([Rdb_card.Oracle]'s message maps hash the same way). *)
let home keys k = (k lxor (k lsr 16) lxor (k lsr 32)) land (Array.length keys - 1)

(* The slot holding [k], or the empty slot where it would go. *)
let slot keys k =
  let mask = Array.length keys - 1 in
  let rec go s =
    let k' = keys.(s) in
    if k' = k || k' = empty then s else go ((s + 1) land mask)
  in
  go (home keys k)

(* Pass 1: count the rows per distinct key, doubling the table whenever
   it would pass half full, so it ends sized by distinct keys (2 to 4
   slots per key) rather than by rows. *)
let count_keys (a : int array) =
  let keys = ref (Array.make 8 empty) in
  let counts = ref (Array.make 9 0) in
  let n_keys = ref 0 in
  let grow () =
    let old_keys = !keys and old_counts = !counts in
    let cap = 2 * Array.length old_keys in
    let ks = Array.make cap empty and cs = Array.make (cap + 1) 0 in
    Array.iteri
      (fun s k ->
        if k <> empty then begin
          let s' = slot ks k in
          ks.(s') <- k;
          cs.(s') <- old_counts.(s)
        end)
      old_keys;
    keys := ks;
    counts := cs
  in
  for r = 0 to Array.length a - 1 do
    let k = a.(r) in
    if k <> empty then begin
      let s = slot !keys k in
      let s =
        if !keys.(s) = k then s
        else begin
          if 2 * (!n_keys + 1) > Array.length !keys then grow ();
          let s = slot !keys k in
          !keys.(s) <- k;
          incr n_keys;
          s
        end
      in
      !counts.(s) <- !counts.(s) + 1
    end
  done;
  (!keys, !counts, !n_keys)

let of_keys (a : int array) =
  let keys, starts, n_keys = count_keys a in
  (* Pass 2: prefix sums turn each count into the end of its range; the
     fill walks the rows backwards, so each range ends up ascending and
     [starts.(s)] at its start. *)
  let cap = Array.length keys in
  for s = 1 to cap do
    starts.(s) <- starts.(s) + starts.(s - 1)
  done;
  let rows = Array.make starts.(cap) 0 in
  for r = Array.length a - 1 downto 0 do
    let k = a.(r) in
    if k <> empty then begin
      let s = slot keys k in
      let p = starts.(s) - 1 in
      starts.(s) <- p;
      rows.(p) <- r
    end
  done;
  { keys; starts; rows; n_keys }

let build table ~col =
  match Table.column table col with
  | Column.Ints a -> of_keys a
  | Column.Strs _ -> invalid_arg "Hash_index.build: string column"

let find t k =
  if k = empty then -1
  else
    let s = slot t.keys k in
    if t.keys.(s) = k then s else -1

let rows t = t.rows
let starts t = t.starts

let count t k =
  let b = find t k in
  if b < 0 then 0 else t.starts.(b + 1) - t.starts.(b)

let n_keys t = t.n_keys
