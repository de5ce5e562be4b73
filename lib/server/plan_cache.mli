(** The server's plan cache: a bounded, mutex-protected LRU map from the
    CQNF canonical-form fingerprint ({!Rdb_verify.Cqnf.fingerprint}) to a
    planned canonical query. Keying on the canonical form makes the cache
    semantic: alias-renamed or syntactically reshuffled — but equivalent —
    queries share one entry, so a hit skips DPccp entirely and replays the
    cached plan against the cached canonical query.

    Every entry carries the table modification counters
    ({!Catalog.mod_count}) it was planned against; a lookup whose current
    counters differ reports [Stale], and the service decides between
    invalidation (drop + replan) and revalidation (prove the cached plan's
    estimates still lie inside the symbolic verifier's sound bounds).

    The cache records [cache.insertions], [cache.evictions] and the
    never-expected [cache.key_collisions] in the metrics registry; the
    service layer records hits/misses/invalidations/revalidations so that
    [cache.hits + cache.misses = serve.requests] holds exactly. *)

module Cqnf := Rdb_verify.Cqnf
module Query := Rdb_query.Query
module Plan := Rdb_plan.Plan
module Resource := Rdb_analysis.Resource

type t

type lookup =
  | Hit of Query.t * Plan.t * Resource.cert
      (** Same canonical form, same epoch: execute directly. The cached
          resource certificate lets admission control decide without
          re-planning. *)
  | Stale of Query.t * Plan.t * Resource.cert
      (** Same canonical form, but a table's modification counter moved. *)
  | Miss

val create : capacity:int -> t
(** [capacity >= 1] or [Invalid_argument]. *)

val capacity : t -> int
val size : t -> int

val lookup :
  t -> key:string -> cqnf:Cqnf.t -> epoch:(string * int) list -> lookup
(** [cqnf] is compared with {!Rdb_verify.Cqnf.equal} against the stored
    form — a fingerprint collision (never expected; counted as
    [cache.key_collisions]) reports [Miss] rather than serving another
    query's plan. A [Hit] or [Stale] refreshes the entry's LRU position. *)

val insert :
  t ->
  key:string ->
  cqnf:Cqnf.t ->
  canonical:Query.t ->
  plan:Plan.t ->
  cert:Resource.cert ->
  epoch:(string * int) list ->
  unit ->
  unit
(** Add (or refresh, when two workers raced on the same miss) an entry,
    evicting the least recently used entry when at capacity. [cert] is the
    plan's resource certificate; it travels with the plan, so a later hit
    can make its admission decision from the cache alone. *)

val refresh : t -> key:string -> epoch:(string * int) list -> unit
(** Revalidation: update the entry's epoch. No-op when the entry was
    evicted. *)

val remove : t -> key:string -> unit

val plan_of : t -> key:string -> Plan.t option

val entries :
  t ->
  (string * Query.t * Plan.t * (string * int) list * int * Resource.cert) list
(** Snapshot of (key, canonical query, plan, epoch, hits, certificate),
    sorted by key — the stress test walks it to prove no torn entry
    exists, and the [\resources] frontend command reports it. *)
