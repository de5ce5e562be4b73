let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---- Value ---- *)

let arbitrary_value =
  QCheck.oneof
    [
      QCheck.always Value.Null;
      QCheck.map (fun i -> Value.Int i) QCheck.small_int;
      QCheck.map (fun s -> Value.Str s) QCheck.small_string;
    ]

let prop_compare_reflexive =
  QCheck.Test.make ~name:"Value.compare reflexive" ~count:200 arbitrary_value
    (fun v -> Value.compare v v = 0)

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"Value.compare antisymmetric" ~count:500
    (QCheck.pair arbitrary_value arbitrary_value)
    (fun (a, b) -> Value.compare a b = -Value.compare b a)

let prop_compare_transitive =
  QCheck.Test.make ~name:"Value.compare transitive" ~count:500
    (QCheck.triple arbitrary_value arbitrary_value arbitrary_value)
    (fun (a, b, c) ->
      if Value.compare a b <= 0 && Value.compare b c <= 0 then
        Value.compare a c <= 0
      else true)

let test_value_null_lowest () =
  check Alcotest.bool "null < int" true (Value.compare Value.Null (Value.Int min_int) < 0);
  check Alcotest.bool "null < str" true (Value.compare Value.Null (Value.Str "") < 0)

let test_value_to_string () =
  check Alcotest.string "int" "42" (Value.to_string (Value.Int 42));
  check Alcotest.string "str" "'x'" (Value.to_string (Value.Str "x"));
  check Alcotest.string "null" "NULL" (Value.to_string Value.Null)

(* ---- Schema ---- *)

let test_schema_lookup () =
  let s =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.Ty_int };
        { Schema.name = "name"; ty = Value.Ty_str };
      ]
  in
  check Alcotest.int "arity" 2 (Schema.arity s);
  check (Alcotest.option Alcotest.int) "find name" (Some 1) (Schema.find s "name");
  check (Alcotest.option Alcotest.int) "find missing" None (Schema.find s "zzz")

let test_schema_duplicate () =
  Alcotest.check_raises "duplicate column"
    (Invalid_argument "Schema.make: duplicate column id") (fun () ->
      ignore
        (Schema.make
           [
             { Schema.name = "id"; ty = Value.Ty_int };
             { Schema.name = "id"; ty = Value.Ty_int };
           ]))

(* ---- Column ---- *)

let test_column_null_sentinel () =
  let c = Column.Ints [| 1; Column.null_int; 3 |] in
  check Alcotest.bool "null cell" true (Value.is_null (Column.get c 1));
  check Alcotest.bool "non-null" false (Value.is_null (Column.get c 0))

let test_column_of_values_roundtrip () =
  let vals = [ Value.Int 1; Value.Null; Value.Int 7 ] in
  let c = Column.of_values Value.Ty_int (Array.of_list vals) in
  check Alcotest.int "length" 3 (Column.length c);
  List.iteri
    (fun i v -> check Alcotest.bool "roundtrip" true (Value.equal v (Column.get c i)))
    vals

let test_column_type_mismatch () =
  Alcotest.check_raises "string in int column"
    (Invalid_argument "Column.of_values: string in int column") (fun () ->
      ignore (Column.of_values Value.Ty_int [| Value.Str "x" |]))

(* ---- Table ---- *)

let mk_table () =
  let schema =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.Ty_int };
        { Schema.name = "label"; ty = Value.Ty_str };
      ]
  in
  Table.create ~name:"t" ~schema
    [|
      Column.Ints [| 1; 2; 3 |];
      Column.Strs [| "a"; "b"; "c" |];
    |]

let test_table_accessors () =
  let t = mk_table () in
  check Alcotest.int "nrows" 3 (Table.nrows t);
  check Alcotest.string "name" "t" (Table.name t);
  check Alcotest.bool "value" true
    (Value.equal (Value.Str "b") (Table.value t ~row:1 ~col:1));
  check Alcotest.int "int_cell" 3 (Table.int_cell t ~row:2 ~col:0)

let test_table_ragged_rejected () =
  let schema =
    Schema.make
      [
        { Schema.name = "a"; ty = Value.Ty_int };
        { Schema.name = "b"; ty = Value.Ty_int };
      ]
  in
  Alcotest.check_raises "ragged" (Invalid_argument "Table.create: ragged columns")
    (fun () ->
      ignore
        (Table.create ~name:"bad" ~schema
           [| Column.Ints [| 1 |]; Column.Ints [| 1; 2 |] |]))

let test_table_of_rows_roundtrip () =
  let t = mk_table () in
  let rows = List.init 3 (Table.row t) in
  let t2 = Table.of_rows ~name:"t2" ~schema:(Table.schema t) rows in
  check Alcotest.int "same rows" (Table.nrows t) (Table.nrows t2);
  for row = 0 to 2 do
    for col = 0 to 1 do
      check Alcotest.bool "cell equal" true
        (Value.equal (Table.value t ~row ~col) (Table.value t2 ~row ~col))
    done
  done

(* ---- Hash_index ---- *)

let index_of_cells cells =
  let schema = Schema.make [ { Schema.name = "k"; ty = Value.Ty_int } ] in
  Hash_index.build (Table.create ~name:"x" ~schema [| Column.Ints cells |]) ~col:0

(* The positions in a key's bucket range, in range order. *)
let lookup index key =
  let b = Hash_index.find index key in
  if b < 0 then []
  else
    let rows = Hash_index.rows index and starts = Hash_index.starts index in
    List.init (starts.(b + 1) - starts.(b)) (fun i -> rows.(starts.(b) + i))

(* Reference: every row holding the key, ascending; NULL never matches. *)
let naive_lookup cells key =
  if key = Column.null_int then []
  else
    List.filter_map
      (fun (i, v) -> if v = key then Some i else None)
      (List.mapi (fun i v -> (i, v)) (Array.to_list cells))

let naive_n_keys cells =
  List.length
    (List.sort_uniq Int.compare
       (List.filter (fun v -> v <> Column.null_int) (Array.to_list cells)))

(* [lookup], [count] and [n_keys] against the reference, for every key
   present and the given absent ones. *)
let index_agrees cells absent =
  let index = index_of_cells cells in
  List.for_all
    (fun key ->
      let expected = naive_lookup cells key in
      lookup index key = expected && Hash_index.count index key = List.length expected)
    (Array.to_list cells @ absent)
  && Hash_index.n_keys index = naive_n_keys cells

(* Small keys collide often; the rest are the edges of the int range, the
   NULL sentinel, and multiples of 1024 below 2^16, which share home slot
   0 in every table of up to 1024 slots. *)
let key_gen =
  QCheck.Gen.(
    frequency
      [
        (6, int_range (-20) 20);
        (1, oneofl [ max_int; min_int + 1; Column.null_int; -1; 0 ]);
        (2, map (fun k -> k * 1024) (int_range 0 63));
      ])

let prop_hash_index_complete =
  QCheck.Test.make ~name:"index lookup = naive scan" ~count:300
    QCheck.(pair (make Gen.(list_size (int_range 0 300) key_gen)) (make key_gen))
    (fun (cells, key) -> index_agrees (Array.of_list cells) [ key ])

let test_hash_index_skips_null () =
  let index = index_of_cells [| 1; Column.null_int; 1 |] in
  check Alcotest.(list int) "nulls not indexed" [] (lookup index Column.null_int);
  check Alcotest.int "two ones" 2 (Hash_index.count index 1);
  check Alcotest.int "one key" 1 (Hash_index.n_keys index);
  let all_null = index_of_cells (Array.make 5 Column.null_int) in
  check Alcotest.int "all-NULL column: no keys" 0 (Hash_index.n_keys all_null);
  check Alcotest.(list int) "all-NULL column: no rows" [] (lookup all_null Column.null_int)

let test_hash_index_edge_keys () =
  let cells = [| max_int; -7; min_int + 1; 0; -7; max_int; Column.null_int; min_int + 1 |] in
  check Alcotest.bool "negative and extreme keys" true
    (index_agrees cells [ 7; max_int - 1; min_int + 2; 1 ]);
  check Alcotest.(list int) "max_int rows" [ 0; 5 ] (lookup (index_of_cells cells) max_int);
  let dups = Array.init 5000 (fun i -> if i mod 1000 = 999 then 2 else 1) in
  check Alcotest.bool "heavy duplicates" true (index_agrees dups [ 0; 3 ]);
  check Alcotest.int "heavy duplicates: count" 4995
    (Hash_index.count (index_of_cells dups) 1);
  let shared = Array.init 600 (fun i -> (i mod 60) * 1024) in
  check Alcotest.bool "keys sharing a home slot" true
    (index_agrees shared [ 60 * 1024; 1024 * 1024; 1 ]);
  check Alcotest.int "empty column" 0 (Hash_index.n_keys (Hash_index.of_keys [||]))

(* ---- Catalog ---- *)

let test_catalog_tables_and_indexes () =
  let cat = Catalog.create () in
  let t = mk_table () in
  Catalog.add_table cat t;
  check Alcotest.bool "table found" true (Catalog.table cat "t" <> None);
  Catalog.add_index cat ~table:"t" ~col:0;
  check Alcotest.bool "index found" true (Catalog.index cat ~table:"t" ~col:0 <> None);
  check (Alcotest.list Alcotest.int) "indexes_on" [ 0 ] (Catalog.indexes_on cat "t");
  Catalog.drop_table cat "t";
  check Alcotest.bool "dropped" true (Catalog.table cat "t" = None);
  check Alcotest.bool "index dropped" true (Catalog.index cat ~table:"t" ~col:0 = None)

let test_catalog_unknown () =
  let cat = Catalog.create () in
  Alcotest.check_raises "unknown table"
    (Invalid_argument "Catalog: unknown table nope") (fun () ->
      ignore (Catalog.table_exn cat "nope"))

let () =
  Alcotest.run "rdb_storage"
    [
      ( "value",
        [
          Alcotest.test_case "null lowest" `Quick test_value_null_lowest;
          Alcotest.test_case "to_string" `Quick test_value_to_string;
          qtest prop_compare_reflexive;
          qtest prop_compare_antisymmetric;
          qtest prop_compare_transitive;
        ] );
      ( "schema",
        [
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "duplicate rejected" `Quick test_schema_duplicate;
        ] );
      ( "column",
        [
          Alcotest.test_case "null sentinel" `Quick test_column_null_sentinel;
          Alcotest.test_case "of_values roundtrip" `Quick test_column_of_values_roundtrip;
          Alcotest.test_case "type mismatch" `Quick test_column_type_mismatch;
        ] );
      ( "table",
        [
          Alcotest.test_case "accessors" `Quick test_table_accessors;
          Alcotest.test_case "ragged rejected" `Quick test_table_ragged_rejected;
          Alcotest.test_case "of_rows roundtrip" `Quick test_table_of_rows_roundtrip;
        ] );
      ( "hash_index",
        [
          Alcotest.test_case "nulls skipped" `Quick test_hash_index_skips_null;
          Alcotest.test_case "edge keys" `Quick test_hash_index_edge_keys;
          qtest prop_hash_index_complete;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "tables and indexes" `Quick test_catalog_tables_and_indexes;
          Alcotest.test_case "unknown table" `Quick test_catalog_unknown;
        ] );
    ]
