(* domain-escape fixture, capture-and-mutate shapes: mutable containers
   captured and mutated inside closures handed to the domain pool, a
   domain or a thread, and a field assignment on a captured record.
   Expected findings: 6. *)

module Pool = Qls_harness.Pool

let bad_ref tasks =
  let counter = ref 0 in
  ignore (Pool.run ~jobs:2 ~f:(fun _i _t -> counter := !counter + 1) tasks);
  !counter

let bad_incr () =
  let hits = ref 0 in
  let d = Domain.spawn (fun () -> incr hits) in
  Domain.join d;
  !hits

let bad_hashtbl p key =
  let seen = Hashtbl.create 8 in
  ignore
    (Pool.submit p
       ~work:(fun () -> Hashtbl.replace seen key true)
       ~complete:(fun _ -> ()));
  seen

let bad_buffer () =
  let buf = Buffer.create 16 in
  let t = Thread.create (fun () -> Buffer.add_string buf "hi") () in
  Thread.join t;
  Buffer.contents buf

let bad_queue q tasks =
  Pool.run ~jobs:4 ~f:(fun _ _ -> ignore (Queue.pop q)) tasks

type st = { mutable count : int }

let bad_setfield st tasks =
  Pool.run ~jobs:2 ~f:(fun _ _ -> st.count <- st.count + 1) tasks

(* Fine: the ref is the closure's own. *)
let ok_local tasks =
  Pool.run ~jobs:2
    ~f:(fun _ _ ->
      let local = ref 0 in
      local := 1;
      !local)
    tasks

(* Fine: disjoint-index writes into a preallocated array are the pool's
   result-collection idiom. *)
let ok_array results tasks = Pool.run ~jobs:2 ~f:(fun i t -> results.(i) <- t) tasks

(* Fine: atomics are the sanctioned cross-domain counter. *)
let ok_atomic n tasks = Pool.run ~jobs:2 ~f:(fun _ _ -> Atomic.incr n) tasks
