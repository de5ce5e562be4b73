type params = {
  cpu_tuple_cost : float;
  cpu_operator_cost : float;
  cpu_index_tuple_cost : float;
  index_lookup_cost : float;
  hash_build_cost : float;
}

let default =
  {
    cpu_tuple_cost = 0.01;
    cpu_operator_cost = 0.0025;
    cpu_index_tuple_cost = 0.005;
    index_lookup_cost = 0.01;
    hash_build_cost = 0.015;
  }

let seq_scan params ~rows ~npreds =
  rows *. (params.cpu_tuple_cost +. (float_of_int npreds *. params.cpu_operator_cost))

let index_scan params ~matches ~npreds =
  params.index_lookup_cost
  +. (matches
      *. (params.cpu_index_tuple_cost
          +. (float_of_int npreds *. params.cpu_operator_cost)))

let hash_join params ~build ~probe ~out =
  (build *. params.hash_build_cost)
  +. (probe *. params.cpu_operator_cost)
  +. (out *. params.cpu_tuple_cost)

let index_nested_loop params ~outer ~out ~npreds =
  (outer *. params.index_lookup_cost)
  +. (out
      *. (params.cpu_index_tuple_cost
          +. (float_of_int npreds *. params.cpu_operator_cost)
          +. params.cpu_tuple_cost))

let nested_loop params ~outer ~inner ~out =
  (outer *. inner *. params.cpu_operator_cost) +. (out *. params.cpu_tuple_cost)
