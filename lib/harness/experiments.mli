(** The paper's tables and figures, one experiment per name. Each returns a
    printable report whose rows/series mirror what the paper plots;
    EXPERIMENTS.md records the shape comparison and DESIGN.md indexes the
    names. Experiments share the lab's measurement cache, so running the
    whole suite costs little more than its most expensive member. *)

val names : string list
(** Experiment names accepted by {!run}, in paper order. *)

val run : ?jobs:int -> Runner.lab -> string -> string
(** Run one experiment by name; raises [Invalid_argument] for unknown
    names. Each experiment fetches its (config, query) cells through
    {!Runner.run_grid} with [jobs] (default 1), so its deterministic
    content is identical at every [jobs]; only wall-clock figures move. *)
