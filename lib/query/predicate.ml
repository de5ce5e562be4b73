type op = Eq | Ne | Lt | Le | Gt | Ge

type like_shape =
  | Prefix of string
  | Suffix of string
  | Contains of string

type t =
  | Cmp of op * Value.t
  | Between of int * int
  | In_list of Value.t list
  | Like of like_shape
  | Is_null
  | Is_not_null

let cmp_holds op c =
  match op with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let string_contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  if nl = 0 then true
  else begin
    let rec scan i =
      if i + nl > hl then false
      else if String.sub hay i nl = needle then true
      else scan (i + 1)
    in
    scan 0
  end

let like_holds shape s =
  match shape with
  | Prefix p ->
    String.length s >= String.length p
    && String.sub s 0 (String.length p) = p
  | Suffix p ->
    let sl = String.length s and pl = String.length p in
    sl >= pl && String.sub s (sl - pl) pl = p
  | Contains p -> string_contains ~needle:p s

let eval t cell =
  match t, cell with
  | Is_null, Value.Null -> true
  | Is_null, _ -> false
  | Is_not_null, Value.Null -> false
  | Is_not_null, _ -> true
  | _, Value.Null -> false
  | Cmp (op, v), cell -> cmp_holds op (Value.compare cell v)
  | Between (lo, hi), Value.Int i -> i >= lo && i <= hi
  | Between _, Value.Str _ -> false
  | In_list vs, cell -> List.exists (Value.equal cell) vs
  | Like shape, Value.Str s -> like_holds shape s
  | Like _, Value.Int _ -> false

let eval_int t cell =
  if cell = Column.null_int then (match t with Is_null -> true | _ -> false)
  else
    match t with
    | Is_null -> false
    | Is_not_null -> true
    | Cmp (op, Value.Int v) -> cmp_holds op (Int.compare cell v)
    | Cmp (_, (Value.Null | Value.Str _)) -> false
    | Between (lo, hi) -> cell >= lo && cell <= hi
    | In_list vs -> List.exists (Value.equal (Value.Int cell)) vs
    | Like _ -> false

let eval_str t cell =
  match t with
  | Is_null -> false
  | Is_not_null -> true
  | Cmp (op, Value.Str v) -> cmp_holds op (String.compare cell v)
  | Cmp (_, (Value.Null | Value.Int _)) -> false
  | Between _ -> false
  | In_list vs -> List.exists (Value.equal (Value.Str cell)) vs
  | Like shape -> like_holds shape cell

(* A relation's predicates compiled once against its typed columns: the
   per-row test neither re-matches the column type nor re-walks a list of
   (column, predicate) pairs to find its column. *)
let compile_filter tbl preds =
  let test (col, p) =
    match Table.column tbl col with
    | Column.Ints cells -> fun row -> eval_int p cells.(row)
    | Column.Strs cells -> fun row -> eval_str p cells.(row)
  in
  match List.map test preds with
  | [] -> fun _ -> true
  | [ t ] -> t
  | tests ->
    let rec all row = function [] -> true | t :: rest -> t row && all row rest in
    fun row -> all row tests

let op_to_sql = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let to_sql ~col t =
  match t with
  | Cmp (op, v) -> Printf.sprintf "%s %s %s" col (op_to_sql op) (Value.to_string v)
  | Between (lo, hi) -> Printf.sprintf "%s BETWEEN %d AND %d" col lo hi
  | In_list vs ->
    Printf.sprintf "%s IN (%s)" col
      (String.concat ", " (List.map Value.to_string vs))
  | Like (Prefix p) -> Printf.sprintf "%s LIKE '%s%%'" col p
  | Like (Suffix p) -> Printf.sprintf "%s LIKE '%%%s'" col p
  | Like (Contains p) -> Printf.sprintf "%s LIKE '%%%s%%'" col p
  | Is_null -> col ^ " IS NULL"
  | Is_not_null -> col ^ " IS NOT NULL"

let pp ~col fmt t = Format.pp_print_string fmt (to_sql ~col t)
