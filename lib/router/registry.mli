(** Name-indexed registry of the routing tools.

    The four evaluated tools (paper §IV-B) are ["sabre"] (LightSABRE),
    ["tket"], ["qmap"] and ["mlqls"]; ["sabre-decay"] is the case-study
    variant (§IV-C), and ["exact"] and ["olsq"] are the optimality provers
    (§IV-A): the search over the transition encoding, and the same
    encoding as CNF. *)

val paper_tools : ?sabre_trials:int -> ?seed:int -> unit -> Router.t list
(** The four heuristic tools in paper order: SABRE, ML-QLS, QMAP, t|ket⟩.
    [sabre_trials] (default 20; the paper uses 1000) applies to SABRE
    only, matching the paper's setup. *)

val by_name : ?sabre_trials:int -> ?seed:int -> string -> Router.t option
(** Look a tool up by name (see above for the known names). [seed]
    seeds the randomised tools; qmap, exact and olsq are deterministic
    and ignore it. *)

val names : string list
(** All registered names. *)
