(* R7 fixture: ambient Random use. Only meaningful when linted under a
   lib/sat or lib/router path — the rule is scoped to the solver stack
   (where bit-for-bit replay demands seed-pure variation) and must stay
   silent elsewhere. *)

let roll () = Random.int 6
let jitter () = Random.float 1.0
let reseed () = Random.self_init ()

(* a justified use is fine *)
let shuffle_tag () =
  (* lint: seeded-randomness — test-only scaffolding, never in a replay *)
  Random.bits ()
