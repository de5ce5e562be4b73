type t =
  | Ints of int array
  | Strs of string array

let null_int = min_int

let length = function
  | Ints a -> Array.length a
  | Strs a -> Array.length a

let ty = function Ints _ -> Value.Ty_int | Strs _ -> Value.Ty_str

let get t i =
  match t with
  | Ints a -> if a.(i) = null_int then Value.Null else Value.Int a.(i)
  | Strs a -> Value.Str a.(i)

let get_int t i =
  match t with
  | Ints a -> a.(i)
  | Strs _ -> invalid_arg "Column.get_int: string column"

let get_str t i =
  match t with
  | Strs a -> a.(i)
  | Ints _ -> invalid_arg "Column.get_str: int column"

let of_values ty values =
  match ty with
  | Value.Ty_int ->
    let conv = function
      | Value.Int i -> i
      | Value.Null -> null_int
      | Value.Str _ -> invalid_arg "Column.of_values: string in int column"
    in
    Ints (Array.map conv values)
  | Value.Ty_str ->
    let conv = function
      | Value.Str s -> s
      | Value.Null -> ""
      | Value.Int _ -> invalid_arg "Column.of_values: int in string column"
    in
    Strs (Array.map conv values)
