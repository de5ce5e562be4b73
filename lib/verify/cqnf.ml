module Query = Rdb_query.Query
module Predicate = Rdb_query.Predicate
module Eq_classes = Rdb_query.Eq_classes

(* A conjunctive-query normal form for the engine's SPJ fragment.

   Every (relation occurrence, column) position is a variable; equi-join
   edges merge variables (one per {!Eq_classes} class), so a chain
   [a.x = b.y, b.y = c.z] becomes one shared variable regardless of how the
   SQL spelled it. Atoms are full-arity — projected-away columns hold
   fresh singleton variables — which makes homomorphism checking a plain
   per-position unification. Aliases never enter the form, so it is
   alias-rename-invariant by construction. *)

type atom = { table : string; args : int array }

type sel =
  | S_star
  | S_count of int
  | S_min of int
  | S_max of int
  | S_sum of int

type t = {
  atoms : atom array;
  var_preds : Predicate.t list array;  (* reduced predicate set per variable *)
  select : sel array;
  n_vars : int;
  redundant_eqs : int;
}

(* ---- predicate implication (pairwise, sound but incomplete) ---- *)

(* Integer bounds implied by a predicate, as (lo, hi) inclusive. *)
let int_range = function
  | Predicate.Cmp (Predicate.Eq, Value.Int v) -> Some (v, v)
  | Predicate.Cmp (Predicate.Lt, Value.Int v) -> Some (min_int, v - 1)
  | Predicate.Cmp (Predicate.Le, Value.Int v) -> Some (min_int, v)
  | Predicate.Cmp (Predicate.Gt, Value.Int v) -> Some (v + 1, max_int)
  | Predicate.Cmp (Predicate.Ge, Value.Int v) -> Some (v, max_int)
  | Predicate.Between (lo, hi) -> Some (lo, hi)
  | _ -> None

let range_only = function
  | Predicate.Cmp ((Predicate.Lt | Predicate.Le | Predicate.Gt | Predicate.Ge), _)
  | Predicate.Between _ -> true
  | _ -> false

(* [implies p q]: every non-NULL value satisfying [p] satisfies [q]. *)
let implies (p : Predicate.t) (q : Predicate.t) =
  if p = q then true
  else
    match p, q with
    | _, Predicate.Is_not_null ->
      (* every predicate except IS NULL rejects NULL *)
      p <> Predicate.Is_null
    | Predicate.Is_null, _ | _, Predicate.Is_null -> false
    | Predicate.Cmp (Predicate.Eq, v), _ -> Predicate.eval q v
    | Predicate.In_list vs, _ -> List.for_all (Predicate.eval q) vs
    | _, Predicate.Cmp (Predicate.Ne, v) ->
      (match int_range p, int_range q with
       | Some (lo, hi), _ ->
         (match v with Value.Int i -> i < lo || i > hi | _ -> false)
       | None, _ -> false)
    | _, _ when range_only q ->
      (match int_range p, int_range q with
       | Some (plo, phi), Some (qlo, qhi) -> qlo <= plo && phi <= qhi
       | _ -> false)
    | Predicate.Like (Predicate.Prefix a), Predicate.Like (Predicate.Prefix b) ->
      String.length b <= String.length a
      && String.sub a 0 (String.length b) = b
    | Predicate.Like (Predicate.Suffix a), Predicate.Like (Predicate.Suffix b) ->
      String.length b <= String.length a
      && String.sub a (String.length a - String.length b) (String.length b) = b
    | Predicate.Like (Predicate.Prefix a), Predicate.Like (Predicate.Contains b)
    | Predicate.Like (Predicate.Suffix a), Predicate.Like (Predicate.Contains b)
    | Predicate.Like (Predicate.Contains a), Predicate.Like (Predicate.Contains b)
      ->
      (* a contains b as a substring *)
      let la = String.length a and lb = String.length b in
      lb <= la
      && (let found = ref false in
          for i = 0 to la - lb do
            if (not !found) && String.sub a i lb = b then found := true
          done;
          !found)
    | _ -> false

(* Remove predicates implied by another kept predicate. Deterministic:
   process in sorted order, drop [q] when some other survivor implies it. *)
let reduce_preds preds =
  let preds = List.sort_uniq compare preds in
  let rec keep acc = function
    | [] -> List.rev acc
    | q :: rest ->
      let implied_elsewhere =
        List.exists (fun p -> p <> q && implies p q) (List.rev_append acc rest)
      in
      if implied_elsewhere then keep acc rest else keep (q :: acc) rest
  in
  keep [] preds

(* [preds_imply ps q]: the conjunction of [ps] implies [q] (pairwise test). *)
let preds_imply ps q = List.exists (fun p -> implies p q) ps

let preds_equivalent ps qs =
  List.for_all (preds_imply ps) qs && List.for_all (preds_imply qs) ps

(* ---- building the form ---- *)

let of_query_raw ~catalog (q : Query.t) =
  let n = Query.n_rels q in
  let classes = Eq_classes.make q.Query.edges in
  (* dense variable ids in position order: one per class, one per column
     on no edge *)
  let var_of_class = Array.make (Eq_classes.n_classes classes) (-1) in
  let n_vars = ref 0 in
  let fresh () =
    let v = !n_vars in
    incr n_vars;
    v
  in
  let var_of_colref cr =
    match Eq_classes.class_of classes cr with
    | None -> fresh ()
    | Some c ->
      if var_of_class.(c) < 0 then var_of_class.(c) <- fresh ();
      var_of_class.(c)
  in
  let atoms =
    Array.init n (fun rel ->
        let table = q.Query.rels.(rel).Query.table in
        let arity =
          Schema.arity (Table.schema (Catalog.table_exn catalog table))
        in
        { table;
          args = Array.init arity (fun col -> var_of_colref { Query.rel; col })
        })
  in
  let var_of_colref cr = atoms.(cr.Query.rel).args.(cr.Query.col) in
  let var_preds = Array.make !n_vars [] in
  List.iter
    (fun ({ Query.target; p } : Query.pred) ->
      let v = var_of_colref target in
      var_preds.(v) <- p :: var_preds.(v))
    q.Query.preds;
  Array.iteri (fun v ps -> var_preds.(v) <- reduce_preds ps) var_preds;
  let select =
    Array.of_list
      (List.map
         (function
           | Query.Count_star -> S_star
           | Query.Count_col cr -> S_count (var_of_colref cr)
           | Query.Min_col cr -> S_min (var_of_colref cr)
           | Query.Max_col cr -> S_max (var_of_colref cr)
           | Query.Sum_col cr -> S_sum (var_of_colref cr))
         q.Query.select)
  in
  {
    atoms;
    var_preds;
    select;
    n_vars = !n_vars;
    redundant_eqs = Eq_classes.redundant classes;
  }

(* ---- canonical renaming: WL-style color refinement ---- *)

(* Colors are dense integers recomputed per round by sorting structural
   keys, so the result depends only on the structure of the form, never on
   hashes or on input numbering (except as a final stable tie-break). *)

let select_role t v =
  let roles = ref [] in
  Array.iteri
    (fun i s ->
      let tag k = roles := (i, k) :: !roles in
      match s with
      | S_star -> ()
      | S_count w -> if w = v then tag 0
      | S_min w -> if w = v then tag 1
      | S_max w -> if w = v then tag 2
      | S_sum w -> if w = v then tag 3)
    t.select;
  List.rev !roles

let dense_ids keys =
  (* assign each distinct key a dense id by sorted order *)
  let sorted = List.sort_uniq compare keys in
  let tbl = Hashtbl.create (List.length sorted) in
  List.iteri (fun i k -> Hashtbl.add tbl k i) sorted;
  tbl

let canon t =
  let nv = t.n_vars and na = Array.length t.atoms in
  (* initial var colors: predicates + select roles *)
  let init_keys =
    List.init nv (fun v -> (t.var_preds.(v), select_role t v))
  in
  let tbl = dense_ids init_keys in
  let vcolor = Array.of_list (List.map (Hashtbl.find tbl) init_keys) in
  let acolor = Array.make na 0 in
  let rounds = nv + na + 2 in
  let refine () =
    (* atom colors from (table, arg var colors) *)
    let akeys =
      Array.to_list
        (Array.map
           (fun a -> (a.table, Array.to_list (Array.map (fun v -> vcolor.(v)) a.args)))
           t.atoms)
    in
    let atbl = dense_ids akeys in
    List.iteri (fun i k -> acolor.(i) <- Hashtbl.find atbl k) akeys;
    (* var colors from (old color, sorted occurrence multiset) *)
    let occs = Array.make nv [] in
    Array.iteri
      (fun i a ->
        Array.iteri (fun c v -> occs.(v) <- (acolor.(i), c) :: occs.(v)) a.args)
      t.atoms;
    let vkeys =
      List.init nv (fun v -> (vcolor.(v), List.sort compare occs.(v)))
    in
    let vtbl = dense_ids vkeys in
    let changed = ref false in
    List.iteri
      (fun v k ->
        let c = Hashtbl.find vtbl k in
        if vcolor.(v) <> c then changed := true;
        vcolor.(v) <- c)
      vkeys;
    !changed
  in
  let rec iterate i = if i < rounds && refine () then iterate (i + 1) in
  ignore (refine ());
  iterate 0;
  (* order atoms by final color, stable on the input index *)
  let order = Array.init na Fun.id in
  Array.sort
    (fun i j ->
      match Int.compare acolor.(i) acolor.(j) with
      | 0 -> Int.compare i j
      | d -> d)
    order;
  (* renumber vars by first occurrence scanning atoms in canonical order,
     then select positions (covers vars used only in aggregates) *)
  let rename = Array.make nv (-1) in
  let next = ref 0 in
  let touch v =
    if rename.(v) < 0 then begin
      rename.(v) <- !next;
      incr next
    end
  in
  Array.iter (fun i -> Array.iter touch t.atoms.(i).args) order;
  Array.iter
    (function
      | S_star -> ()
      | S_count v | S_min v | S_max v | S_sum v -> touch v)
    t.select;
  (* vars unreachable from atoms and select cannot exist by construction *)
  assert (!next = nv);
  let atoms =
    Array.map
      (fun i ->
        let a = t.atoms.(i) in
        { a with args = Array.map (fun v -> rename.(v)) a.args })
      order
  in
  let var_preds = Array.make nv [] in
  Array.iteri (fun v ps -> var_preds.(rename.(v)) <- ps) t.var_preds;
  let select =
    Array.map
      (function
        | S_star -> S_star
        | S_count v -> S_count rename.(v)
        | S_min v -> S_min rename.(v)
        | S_max v -> S_max rename.(v)
        | S_sum v -> S_sum rename.(v))
      t.select
  in
  { t with atoms; var_preds; select }

let of_query ~catalog q = canon (of_query_raw ~catalog q)

let equal a b =
  a.atoms = b.atoms && a.var_preds = b.var_preds && a.select = b.select
  && a.n_vars = b.n_vars

let redundancy t = t.redundant_eqs

(* ---- back to a Query.t (for the normalize fixpoint property) ---- *)

let to_query ~name t =
  let rels =
    Array.mapi
      (fun i a -> { Query.alias = Printf.sprintf "v%d" i; table = a.table })
      t.atoms
  in
  (* first occurrence of each var, scanning atoms in order *)
  let first = Array.make t.n_vars None in
  let occs = Array.make t.n_vars [] in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun c v ->
          let cr = { Query.rel = i; col = c } in
          if first.(v) = None then first.(v) <- Some cr;
          occs.(v) <- cr :: occs.(v))
        a.args)
    t.atoms;
  let first_exn v =
    match first.(v) with
    | Some cr -> cr
    | None -> invalid_arg "Cqnf.to_query: aggregate variable not in any atom"
  in
  let edges =
    Array.to_list occs
    |> List.concat_map (fun crs ->
           match List.rev crs with
           | [] | [ _ ] -> []
           | anchor :: rest ->
             List.map (fun cr -> { Query.l = anchor; r = cr }) rest)
  in
  let preds =
    List.concat
      (List.init t.n_vars (fun v ->
           List.map
             (fun p -> { Query.target = first_exn v; p })
             t.var_preds.(v)))
  in
  let select =
    Array.to_list
      (Array.map
         (function
           | S_star -> Query.Count_star
           | S_count v -> Query.Count_col (first_exn v)
           | S_min v -> Query.Min_col (first_exn v)
           | S_max v -> Query.Max_col (first_exn v)
           | S_sum v -> Query.Sum_col (first_exn v))
         t.select)
  in
  { Query.name; rels; preds; edges; select }

let normalize ~catalog (q : Query.t) =
  to_query ~name:q.Query.name (of_query ~catalog q)

(* ---- fingerprint: an injective string rendering of the canonical form ----

   The server's plan cache keys entries on this string, so two forms must
   produce the same fingerprint exactly when [equal] holds (redundant_eqs
   excluded, like [equal]). Every constructor is tagged and every string is
   length-prefixed, so no two distinct forms can collide by concatenation
   ambiguity. Equality of fingerprints of canonical forms is therefore the
   same relation as [equal] — the property test_server pins down in both
   directions. *)

let fingerprint t =
  let buf = Buffer.create 256 in
  let str s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let int i = Buffer.add_string buf (string_of_int i); Buffer.add_char buf ';' in
  let value = function
    | Value.Null -> Buffer.add_char buf 'n'
    | Value.Int i -> Buffer.add_char buf 'i'; int i
    | Value.Str s -> Buffer.add_char buf 's'; str s
  in
  let op (o : Predicate.op) =
    Buffer.add_char buf
      (match o with
       | Predicate.Eq -> '=' | Predicate.Ne -> '!' | Predicate.Lt -> '<'
       | Predicate.Le -> 'l' | Predicate.Gt -> '>' | Predicate.Ge -> 'g')
  in
  let pred = function
    | Predicate.Cmp (o, v) -> Buffer.add_char buf 'C'; op o; value v
    | Predicate.Between (lo, hi) -> Buffer.add_char buf 'B'; int lo; int hi
    | Predicate.In_list vs ->
      Buffer.add_char buf 'I';
      int (List.length vs);
      List.iter value vs
    | Predicate.Like (Predicate.Prefix s) -> Buffer.add_char buf 'P'; str s
    | Predicate.Like (Predicate.Suffix s) -> Buffer.add_char buf 'S'; str s
    | Predicate.Like (Predicate.Contains s) -> Buffer.add_char buf 'K'; str s
    | Predicate.Is_null -> Buffer.add_char buf 'U'
    | Predicate.Is_not_null -> Buffer.add_char buf 'N'
  in
  int t.n_vars;
  int (Array.length t.atoms);
  Array.iter
    (fun a ->
      str a.table;
      int (Array.length a.args);
      Array.iter int a.args)
    t.atoms;
  Array.iter
    (fun ps ->
      int (List.length ps);
      List.iter pred ps)
    t.var_preds;
  int (Array.length t.select);
  Array.iter
    (function
      | S_star -> Buffer.add_char buf '*'
      | S_count v -> Buffer.add_char buf 'c'; int v
      | S_min v -> Buffer.add_char buf 'm'; int v
      | S_max v -> Buffer.add_char buf 'M'; int v
      | S_sum v -> Buffer.add_char buf '+'; int v)
    t.select;
  Buffer.contents buf
