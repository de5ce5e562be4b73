(** Hash index over integer keys, mapping each key to the positions
    holding it: over a base-table column, the row ids — the engine's analog
    of the foreign-key indexes the paper adds to make access-path selection
    challenging — and over a join's inner key column, the hash join's build
    table.

    Open addressing on the int keys, sized by distinct keys (at most half
    full), with CSR buckets: every key's positions lie in one range of a
    single flat array, ascending. A probe hashes no boxed value and
    allocates nothing; it hands back a bucket whose range the caller
    reads in place. *)

type t

val of_keys : int array -> t
(** Index positions [0 .. length - 1] of a key array by their key. NULL
    keys ({!Column.null_int}) are not indexed. *)

val build : Table.t -> col:int -> t
(** [of_keys] over an integer column's cells: positions are row ids.
    Raises [Invalid_argument] on a string column. *)

val find : t -> int -> int
(** The bucket holding the key, or [-1] when it is absent (always for
    NULL). Bucket [b]'s positions are [(rows t).(i)] for
    [(starts t).(b) <= i < (starts t).(b + 1)], in ascending order. *)

val rows : t -> int array
(** The flat position array; must not be mutated. *)

val starts : t -> int array
(** Range starts by bucket, one cell more than there are buckets; must not
    be mutated. *)

val count : t -> int -> int
(** Number of positions holding the key. *)

val n_keys : t -> int
(** Number of distinct keys present. *)
