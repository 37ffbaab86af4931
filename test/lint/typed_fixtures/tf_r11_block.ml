(* R11 fixture: blocking calls inside Mutex.protect bodies, also under a
   locally renamed Mutex. Expected findings: 4. *)

type t = { m : Mutex.t; m2 : Mutex.t; cond : Condition.t }

(* bad: sleeping with the lock held *)
let bad_sleep t = Mutex.protect t.m (fun () -> Unix.sleepf 0.01)

(* bad: joining a thread with the lock held *)
let bad_join t th = Mutex.protect t.m (fun () -> Thread.join th)

(* bad: waiting on a condition tied to a different mutex *)
let bad_wait_other t =
  Mutex.protect t.m (fun () -> Condition.wait t.cond t.m2)

(* ok: waiting on the protected mutex itself *)
let good_wait_same t =
  Mutex.protect t.m (fun () -> Condition.wait t.cond t.m)

(* suppressed blocking call *)
let sup_sleep t =
  Mutex.protect t.m (fun () ->
      (* lint: blocking-under-mutex — fixture: deliberate, nothing contends *)
      Unix.sleepf 0.001)

(* bad: a locally renamed Mutex still takes the lock *)
let alias_bad t =
  let module M = Mutex in
  M.protect t.m (fun () -> Unix.sleepf 0.1)
