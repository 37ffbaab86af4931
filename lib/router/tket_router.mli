(** A t|ket⟩-style slice-lookahead router (Cowtan et al., "On the qubit
    routing problem", 2019).

    t|ket⟩'s routing pass views the circuit as a sequence of timeslices of
    parallel two-qubit gates. When the current slice is blocked it scores
    candidate SWAPs by the summed post-SWAP distances over the next 4
    timeslices, geometrically discounted by 0.7, and applies the best
    one. Compared with SABRE it has no per-qubit decay and its lookahead
    window is structured by slices rather than by a fixed gate count;
    its initial placement is a graph-similarity heuristic rather than
    SABRE's bidirectional refinement. Both differences are faithful to
    the tools' published designs and explain the qualitatively larger
    optimality gap the paper measures for t|ket⟩ (§IV-B).

    The initial placement, unless supplied, tries a full subgraph
    monomorphism first (t|ket⟩'s graph placement solves SWAP-free
    instances outright) and falls back to interaction-degree greedy
    placement. *)

type options = { seed : int  (** tie-breaking stream *) }
(** The rest is fixed: 4 slices per decision at discount 0.7, a
    200,000-node budget for the placement's monomorphism try, a release
    valve that tolerates 32 consecutive non-progressing SWAPs, and
    SABRE's absolute [1e-12] tie window. *)

val route :
  ?options:options ->
  ?initial:Qls_layout.Mapping.t ->
  Qls_arch.Device.t ->
  Qls_circuit.Circuit.t ->
  Qls_layout.Transpiled.t
(** Run the router. *)

val router : ?options:options -> unit -> Router.t
(** Package as ["tket"]. *)
