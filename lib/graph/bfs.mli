(** Breadth-first search utilities.

    The QUBIKOS dependency-relation construction (paper §III-B) is built on
    BFS *edge orders*: visiting the edges of a section's interaction graph
    in BFS order from the special-gate endpoints guarantees that every gate
    shares a qubit with an earlier gate in the order, which is exactly the
    dependency-chain property Lemma 2 needs. *)

val distances : Graph.t -> int -> int array
(** [distances g src] is the array of BFS distances from [src];
    unreachable vertices get [max_int]. *)

val edge_order : Graph.t -> sources:int list -> skip:(int -> int -> bool) -> (int * int) list
(** [edge_order g ~sources ~skip] visits every edge of [g] not excluded by
    [skip] in multi-source BFS order: an edge is emitted (oriented
    [(reached_from, discovered)] or between two already-visited vertices as
    [(u, v)] with [u] visited earlier) the first time the search crosses
    it. Each non-skipped edge reachable from the sources appears exactly
    once, and every emitted edge shares an endpoint with an earlier emitted
    edge or with a source vertex — the chain property used by the QUBIKOS
    dependency construction.

    Edges in components not reachable from [sources] are omitted; the
    caller is responsible for connectivity (see
    {!Qubikos.Dependency}). *)

val path : Graph.t -> int -> int -> int list option
(** [path g u v] is a shortest path from [u] to [v] inclusive, or [None]
    if disconnected. *)
