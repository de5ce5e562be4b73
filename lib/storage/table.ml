type t = {
  name : string;
  schema : Schema.t;
  cols : Column.t array;
  nrows : int;
}

let create ~name ~schema cols =
  let arity = Schema.arity schema in
  if Array.length cols <> arity then
    invalid_arg "Table.create: column count does not match schema";
  let nrows = if arity = 0 then 0 else Column.length cols.(0) in
  Array.iteri
    (fun i c ->
      if Column.length c <> nrows then
        invalid_arg "Table.create: ragged columns";
      if Column.ty c <> (Schema.column schema i).Schema.ty then
        invalid_arg "Table.create: column type mismatch")
    cols;
  { name; schema; cols; nrows }

let name t = t.name
let schema t = t.schema
let nrows t = t.nrows
let column t i = t.cols.(i)

let value t ~row ~col = Column.get t.cols.(col) row
let int_cell t ~row ~col = Column.get_int t.cols.(col) row

let row t i = Array.init (Array.length t.cols) (fun c -> Column.get t.cols.(c) i)

let of_rows ~name ~schema rows =
  let rows = Array.of_list rows in
  let cols =
    Array.init (Schema.arity schema) (fun c ->
        Column.of_values (Schema.column schema c).Schema.ty
          (Array.map (fun r -> r.(c)) rows))
  in
  create ~name ~schema cols
