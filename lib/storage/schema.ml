type column = { name : string; ty : Value.ty }

type fk = { fk_col : int; ref_table : string; ref_col : string }

type t = {
  cols : column array;
  by_name : (string, int) Hashtbl.t;
  unique : bool array;
  not_null : bool array;
  fks : fk list;
}

let make ?(unique = []) ?(not_null = []) ?(fks = []) cols =
  let arr = Array.of_list cols in
  let by_name = Hashtbl.create (Array.length arr) in
  Array.iteri
    (fun i c ->
      if Hashtbl.mem by_name c.name then
        invalid_arg ("Schema.make: duplicate column " ^ c.name);
      Hashtbl.add by_name c.name i)
    arr;
  let resolve what name =
    match Hashtbl.find_opt by_name name with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Schema.make: %s names unknown column %s" what name)
  in
  let flags what names =
    let a = Array.make (Array.length arr) false in
    List.iter (fun name -> a.(resolve what name) <- true) names;
    a
  in
  let fks =
    List.map
      (fun (col, ref_table, ref_col) ->
        { fk_col = resolve "foreign key" col; ref_table; ref_col })
      fks
  in
  (let seen = Hashtbl.create 4 in
   List.iter
     (fun f ->
       if Hashtbl.mem seen f.fk_col then
         invalid_arg
           ("Schema.make: two foreign keys on column " ^ arr.(f.fk_col).name);
       Hashtbl.add seen f.fk_col ())
     fks);
  {
    cols = arr;
    by_name;
    unique = flags "unique constraint" unique;
    not_null = flags "not-null constraint" not_null;
    fks;
  }

let arity t = Array.length t.cols
let columns t = t.cols
let column t i = t.cols.(i)
let find t name = Hashtbl.find_opt t.by_name name
let find_exn t name =
  match find t name with Some i -> i | None -> raise Not_found

let is_unique t i = t.unique.(i)
let is_not_null t i = t.not_null.(i)
let fk_of t i = List.find_opt (fun f -> f.fk_col = i) t.fks
let fks t = t.fks
