(** The materialized csg-cmp-pair list of one query's join graph, sorted so
    that every pair is seen only after all pairs composing its components.
    The search space depends only on the graph, never on statistics, so one
    instance is shared across every estimator configuration the experiments
    sweep over.

    The order is a contract, not only a property. Pairs come in ascending
    order of [|s1 ∪ s2|], and pairs of equal size in exactly the order the
    stdlib's (OCaml 5.1) unstable [Array.sort] gives the DPccp enumeration
    reversed, keyed on that size. The dynamic program keeps the first
    strict minimum it sees for a subset, so equal-cost candidates are
    decided by the order of their pairs: any other order of equal-size
    pairs (a stable sort, say) swaps the join order of equal-cost plans
    and changes plans that are pinned bit for bit. *)

module Relset = Rdb_util.Relset
module Join_graph := Rdb_query.Join_graph

type t

val build : Join_graph.t -> t

val iter : t -> (Relset.t -> Relset.t -> unit) -> unit
(** Pairs in the order above. *)

val n_pairs : t -> int
