(* Multi-file golden fixture, worker side: cross-module lock edges seen
   through callee summaries, and spawn closures whose escape comes from a
   callee in another file. *)

let wmu = Mutex.create ()

(* @lock_order wmu < store.mu *)

(* @guarded_by wmu *)
let pending = ref []

let poke () =
  Mutex.lock wmu;
  pending := [];
  Mutex.unlock wmu

(* holds wmu across Store.touch: worker.wmu -> store.mu *)
let flush () =
  Mutex.lock wmu;
  Store.touch ();
  Mutex.unlock wmu

(* intentional: Not_found from Store.load escapes the domain *)
let start key = Domain.spawn (fun () -> Store.load key)

let start_caught key =
  Domain.spawn (fun () -> try Store.load key with Not_found -> 0)
