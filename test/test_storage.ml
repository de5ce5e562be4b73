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

let prop_hash_index_complete =
  QCheck.Test.make ~name:"index lookup = naive scan" ~count:200
    QCheck.(pair (list (int_range 0 20)) (int_range 0 20))
    (fun (cells, key) ->
      let arr = Array.of_list cells in
      let schema = Schema.make [ { Schema.name = "k"; ty = Value.Ty_int } ] in
      let t = Table.create ~name:"x" ~schema [| Column.Ints arr |] in
      let index = Hash_index.build t ~col:0 in
      let via_index = Array.to_list (Hash_index.lookup index key) |> List.sort Int.compare in
      let naive =
        List.filteri (fun _ _ -> true) (Array.to_list arr)
        |> List.mapi (fun i v -> (i, v))
        |> List.filter_map (fun (i, v) -> if v = key then Some i else None)
      in
      via_index = naive)

let test_hash_index_skips_null () =
  let schema = Schema.make [ { Schema.name = "k"; ty = Value.Ty_int } ] in
  let t =
    Table.create ~name:"x" ~schema
      [| Column.Ints [| 1; Column.null_int; 1 |] |]
  in
  let index = Hash_index.build t ~col:0 in
  check Alcotest.int "nulls not indexed" 0
    (Array.length (Hash_index.lookup index Column.null_int));
  check Alcotest.int "two ones" 2 (Hash_index.count index 1);
  check Alcotest.int "one key" 1 (Hash_index.n_keys index)

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
          qtest prop_hash_index_complete;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "tables and indexes" `Quick test_catalog_tables_and_indexes;
          Alcotest.test_case "unknown table" `Quick test_catalog_unknown;
        ] );
    ]
