(** Closed floating-point intervals: the currency of the sensitivity
    analyzer's per-node cost intervals and the resource certifier's
    memory and work envelopes.

    Intervals carry no cost formulas of their own. The join-cost rule
    ([Rdb_plan.Plan.join_cost]) is monotone non-decreasing in every row
    and cost input for non-negative parameters — a property the test suite
    checks — so its exact image over a box is its value at the all-lower
    and all-upper corners, which is how the sensitivity analyzer builds
    each node's interval. *)

type t = { lo : float; hi : float }

val point : float -> t
(** Degenerate interval [v, v]. *)

val make : float -> float -> t
(** Interval between the two values, in either order. *)

val union : t -> t -> t
(** Smallest interval containing both. *)

val contains : t -> float -> bool
(** Within the interval, with half-a-row absolute plus 1e-9 relative slack
    (interval recomputation replays the optimizer's float expressions, which
    may associate differently). *)

val width : t -> float
(** [hi - lo]. *)

val ratio : t -> float
(** [hi / lo] with both endpoints floored at one row — the Q-error-flavoured
    spread of the interval. Always [>= 1]. *)

val rows_to_string : float -> string
(** Compact rendering of a row count: an integer when small and integral,
    three significant digits otherwise. *)

val to_string : t -> string
(** ["[lo, hi]"], each end as {!rows_to_string}. *)
