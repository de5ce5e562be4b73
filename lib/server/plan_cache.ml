module Cqnf = Rdb_verify.Cqnf
module Query = Rdb_query.Query
module Plan = Rdb_plan.Plan
module Resource = Rdb_analysis.Resource
module Metrics = Rdb_obs.Metrics

type entry = {
  key : string;
  cqnf : Cqnf.t;
  canonical : Query.t;
  (* @guarded_by mu *)
  mutable plan : Plan.t;
  (* @guarded_by mu *)
  mutable cert : Resource.cert;
  (* @guarded_by mu *)
  mutable epoch : (string * int) list;
  (* @guarded_by mu *)
  mutable last_use : int;
  (* @guarded_by mu *)
  mutable hits : int;
}

type t = {
  mu : Mutex.t;
  capacity : int;
  (* @guarded_by mu *)
  tbl : (string, entry) Hashtbl.t;
  (* @guarded_by mu *)
  mutable tick : int;
}

type lookup =
  | Hit of Query.t * Plan.t * Resource.cert
  | Stale of Query.t * Plan.t * Resource.cert
  | Miss

let create ~capacity =
  if capacity < 1 then invalid_arg "Plan_cache.create: capacity must be >= 1";
  { mu = Mutex.create (); capacity; tbl = Hashtbl.create 64; tick = 0 }

(* Metrics counters are bumped while the cache lock is held, never the
   other way around. *)
(* @lock_order plan_cache.mu < metrics.smu *)

(* @with_lock mu *)
let locked t f = Mutex.protect t.mu f

let capacity t = t.capacity

let size t = locked t (fun () -> Hashtbl.length t.tbl)

(* @requires mu *)
let touch_locked t e =
  t.tick <- t.tick + 1;
  e.last_use <- t.tick

let lookup t ~key ~cqnf ~epoch =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> Miss
      | Some e when not (Cqnf.equal e.cqnf cqnf) ->
        (* The fingerprint is injective on canonical forms, so this branch
           is unreachable unless that invariant breaks; count it rather
           than silently serving another query's plan. *)
        Metrics.incr "cache.key_collisions";
        Miss
      | Some e ->
        touch_locked t e;
        if e.epoch = epoch then begin
          e.hits <- e.hits + 1;
          Hit (e.canonical, e.plan, e.cert)
        end
        else Stale (e.canonical, e.plan, e.cert))

let insert t ~key ~cqnf ~canonical ~plan ~cert ~epoch () =
  locked t (fun () ->
      (match Hashtbl.find_opt t.tbl key with
       | Some e ->
         (* Raced with another worker planning the same form: keep one
            entry, refreshed. *)
         e.plan <- plan;
         e.cert <- cert;
         e.epoch <- epoch;
         touch_locked t e
       | None ->
         if Hashtbl.length t.tbl >= t.capacity then begin
           (* Evict the least recently used entry to respect the bound. *)
           let victim =
             Hashtbl.fold
               (fun _ e acc ->
                 match acc with
                 | Some v when v.last_use <= e.last_use -> acc
                 | _ -> Some e)
               t.tbl None
           in
           match victim with
           | Some v ->
             Hashtbl.remove t.tbl v.key;
             Metrics.incr "cache.evictions"
           | None -> ()
         end;
         let e =
           { key; cqnf; canonical; plan; cert; epoch; last_use = 0; hits = 0 }
         in
         touch_locked t e;
         Hashtbl.replace t.tbl key e;
         Metrics.incr "cache.insertions"))

let refresh t ~key ~epoch =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | None -> ()
      | Some e ->
        e.epoch <- epoch;
        touch_locked t e)

let remove t ~key = locked t (fun () -> Hashtbl.remove t.tbl key)

let plan_of t ~key =
  locked t (fun () ->
      Option.map (fun e -> e.plan) (Hashtbl.find_opt t.tbl key))

let entries t =
  locked t (fun () ->
      Hashtbl.fold
        (fun _ e acc ->
          (e.key, e.canonical, e.plan, e.epoch, e.hits, e.cert) :: acc)
        t.tbl []
      |> List.sort (fun (a, _, _, _, _, _) (b, _, _, _, _, _) -> compare a b))
