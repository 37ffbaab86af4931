(* R10 fixture: mutable state captured by closures that cross a domain
   boundary via Pool.submit / Domain.spawn, also through a renamed pool
   module. Expected findings: 3. *)

module Pool = Qls_harness.Pool

(* bad: int ref captured by the pool work closure *)
let pool_bad p =
  let counter = ref 0 in
  ignore
    (Pool.submit p
       ~work:(fun () -> incr counter)
       ~complete:(fun _ -> ()))

(* bad: Hashtbl captured by a spawned domain *)
let spawn_bad tbl =
  let d = Domain.spawn (fun () -> Hashtbl.length tbl) in
  Domain.join d

(* ok: Atomic is the sanctioned shared cell *)
let atomic_good p =
  let counter = Atomic.make 0 in
  ignore
    (Pool.submit p
       ~work:(fun () -> Atomic.incr counter)
       ~complete:(fun _ -> ()))

(* suppressed: scratch buffer handed off wholesale *)
let scratch_ok p buf =
  ignore
    (Pool.submit p
       ~work:(fun () ->
         (* lint: domain-escape — scratch handed off wholesale, never reused here *)
         Buffer.add_char buf 'x')
       ~complete:(fun _ -> ()))

(* bad: a renamed pool module is still the pool *)
module P = Qls_harness.Pool

let alias_bad p =
  let counter = ref 0 in
  ignore (P.submit p ~work:(fun () -> incr counter) ~complete:(fun _ -> ()))
