(** VF2 subgraph monomorphism (Cordella, Foggia, Sansone & Vento, 2004).

    QLS semantics: a circuit is executable on a device with no SWAP gates
    iff its interaction graph [H] admits a *monomorphism* into the coupling
    graph [G] — an injective vertex map under which every interaction edge
    lands on a coupling edge (non-induced: extra coupling edges are fine).

    Its callers ask whether a circuit runs with no SWAP at all:
    - {!Qls_router.Placement.vf2} places a circuit on the device when its
      interaction graph embeds — tket's initial placement, and the QUEKO
      contrast experiment (E5), which solves QUEKO benchmarks outright
      (which is exactly why QUEKO cannot measure SWAP optimality gaps);
    - {!Qls_circuit.Interaction.swap_free} answers the same question for
      [qubikos queko].

    The optimality certificate does not search: it refutes an embedding
    of each section with a degree pigeonhole (see [Qubikos.Certificate]).

    The implementation is the standard VF2 state-space search with
    degree-based candidate pruning and a connectivity-first variable
    ordering. *)

val find :
  ?node_limit:int -> pattern:Graph.t -> target:Graph.t -> unit -> int array option
(** [find ~pattern ~target ()] is [Some f] where [f.(h) = g] maps pattern
    vertex [h] to target vertex [g], if a monomorphism exists, else
    [None]. Vertices of the pattern with degree [0] are assigned greedily
    to leftover target vertices at the end (they impose no edge
    constraints).

    [node_limit] caps the number of search-tree nodes; when exhausted the
    search raises [Exit]-free and returns [None] — use only where a missed
    embedding is acceptable (heuristics), never in the certificate.
    @raise Invalid_argument if the pattern has more vertices than the
    target. *)

val exists : ?node_limit:int -> pattern:Graph.t -> target:Graph.t -> unit -> bool
(** [exists ~pattern ~target ()] is [true] iff a monomorphism exists. *)
