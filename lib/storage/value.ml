type t =
  | Null
  | Int of int
  | Str of string

type ty = Ty_int | Ty_str

let ty_of = function
  | Null -> None
  | Int _ -> Some Ty_int
  | Str _ -> Some Ty_str

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Int x, Int y -> Int.compare x y
  | Int _, Str _ -> -1
  | Str _, Int _ -> 1
  | Str x, Str y -> String.compare x y

let equal a b = compare a b = 0

let is_null = function Null -> true | Int _ | Str _ -> false

let to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Str s -> "'" ^ s ^ "'"

let ty_to_string = function Ty_int -> "int" | Ty_str -> "text"
