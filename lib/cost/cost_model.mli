(** The cost model: PostgreSQL-flavoured per-tuple CPU costs for an
    in-memory workload (the paper's setup caches all tables and indexes, so
    I/O terms are irrelevant; CPU terms decide between plans).

    The paper's point (§II-A) is that the cost model is *not* the weak
    link: costs are honest given the cardinalities, and garbage-in
    cardinalities produce garbage cost rankings. We therefore keep the
    model simple and correct, and let estimation errors do the damage.

    Every formula takes the parameter record explicitly so ablation
    benchmarks can sweep the constants. *)

type params = {
  cpu_tuple_cost : float;       (** emitting / materializing one tuple *)
  cpu_operator_cost : float;    (** one predicate or hash evaluation *)
  cpu_index_tuple_cost : float; (** fetching one tuple through an index *)
  index_lookup_cost : float;    (** one hash-index probe *)
  hash_build_cost : float;      (** inserting one tuple into a hash table *)
}

val default : params

val seq_scan : params -> rows:float -> npreds:int -> float
(** Scan [rows] physical rows, evaluating [npreds] predicates on each. *)

val index_scan : params -> matches:float -> npreds:int -> float
(** Equality index scan returning [matches] rows, with [npreds] residual
    predicates evaluated on each. *)

val hash_join : params -> build:float -> probe:float -> out:float -> float
(** Build a hash table on [build] rows, probe with [probe] rows, emit
    [out]. Input subtree costs are not included. *)

val index_nested_loop : params -> outer:float -> out:float -> npreds:int -> float
(** One index probe per outer row; [out] matches flow through [npreds]
    residual predicates. The under-estimation disaster mode: when [outer]
    and [out] are predicted tiny this looks unbeatable. *)

val nested_loop : params -> outer:float -> inner:float -> out:float -> float
(** Plain nested loop over a materialized inner. *)
