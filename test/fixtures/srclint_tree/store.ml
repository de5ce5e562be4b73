(* Multi-file golden fixture for racecheck and exnflow, store side. Never
   compiled — only parsed by the analyzers. Every finding in this tree is
   intentional and pinned by test/srclint_tree_*.expected.json. *)

let mu = Mutex.create ()

(* @guarded_by mu *)
let count = ref 0

let table : (string, int) Hashtbl.t = Hashtbl.create 8

(* Takes the store lock: a caller holding another lock gains an edge to
   store.mu only through this function's summary. *)
let touch () =
  Mutex.lock mu;
  incr count;
  Mutex.unlock mu

(* @requires mu *)
let bump_locked () = incr count

(* @with_lock mu *)
let with_store f = Mutex.protect mu f

let bump_wrapped () = with_store (fun () -> bump_locked ())

(* intentional: calls a @requires mu function without the lock *)
let bump_unlocked () = bump_locked ()

(* raises Not_found: a closure spawned around it inherits the escape *)
let load key = Hashtbl.find table key

(* intentional: store.mu -> worker.wmu through Worker.poke's summary,
   closing a cycle with Worker.flush and breaking the declared order *)
let drain () =
  Mutex.lock mu;
  Worker.poke ();
  Mutex.unlock mu
