(** An ML-QLS-style multilevel layout synthesiser (Lin & Cong 2024).

    ML-QLS attacks scale with the classic multilevel metaheuristic from
    VLSI placement:

    + {b coarsen} — repeatedly contract the weighted interaction graph by
      heavy-edge matching until it is small;
    + {b initial place} — place the coarsest clusters on the device with a
      weighted greedy placement;
    + {b uncoarsen + refine} — undo one contraction level at a time,
      seeding children at their cluster's physical anchor and improving
      the placement by pairwise-exchange local search on the weighted
      spread cost;
    + {b route} — run a SABRE-style routing pass from the refined
      placement.

    The placement stages are the tool's contribution; the routing pass is
    standard. This mirrors the published structure faithfully enough to
    reproduce the paper's qualitative finding (§IV-B): comparable to
    LightSABRE on small and mid devices, weaker on the 127-qubit Eagle. *)

type options = {
  seed : int;  (** RNG stream of the placement and of the routing pass *)
}
(** The rest is fixed: coarsening stops at 8 clusters, each level gets 4
    local-search sweeps, and the routing pass is one trial of stock
    SABRE with no refinement passes. *)

val place : ?options:options -> Qls_arch.Device.t -> Qls_circuit.Circuit.t -> Qls_layout.Mapping.t
(** The multilevel placement alone (no routing), exposed for tests. *)

val weighted_cost :
  Qls_arch.Device.t ->
  Qls_circuit.Circuit.t ->
  Qls_layout.Mapping.t ->
  int
(** The weighted spread cost the placement stages minimise: sum over
    interaction pairs of [gate_count * distance]. Exposed for placement
    quality comparisons. *)

val route :
  ?options:options ->
  ?initial:Qls_layout.Mapping.t ->
  Qls_arch.Device.t ->
  Qls_circuit.Circuit.t ->
  Qls_layout.Transpiled.t
(** Full pipeline. A supplied [initial] skips the multilevel placement. *)

val router : ?options:options -> unit -> Router.t
(** Package as ["mlqls"]. *)
