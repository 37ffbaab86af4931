(** A QMAP-style layer-by-layer A* mapper (Zulehner, Paler & Wille 2018/19;
    the algorithm behind MQT QMAP's heuristic mode).

    The circuit's two-qubit gates are partitioned into ASAP layers of
    parallel gates. For each layer in sequence, an A* search over SWAP
    sequences transforms the current mapping into one under which {e every}
    gate of the layer is executable; the search cost is the number of
    SWAPs, the heuristic is the summed distance excess of the layer's
    gates (divided by 2, admissible: one SWAP improves at most two layer
    gates by one each), optionally augmented with a discounted next-layer
    lookahead term (QMAP's default behaviour, which sacrifices
    admissibility for speed, exactly as the original tool does).

    Satisfying whole layers at a time is QMAP's signature locality: it
    produces clean per-layer mappings but no global routing plan, which is
    the behaviour behind the very large optimality gaps the paper measures
    on big devices (§IV-B).

    When A* exceeds its node budget on a layer the router falls back to
    shortest-path routing of that layer's gates one by one (QMAP similarly
    bounds its search frontier). *)

type options = {
  lookahead_weight : float;
      (** weight of the next-layer heuristic term, 0 = admissible,
          default 0.5 *)
  node_budget : int;
      (** A* queue insertions allowed per layer, default 10_000. Bounds
          time {e and} memory: a queued node costs seven words (a row of
          five ints, its f-cost and its heap entry), not a mapping, so
          the search's memory is the budget times a few words plus one
          [n_prog]-int table per expanded node. *)
  seed : int;  (** tie-breaking stream for the fallback *)
}

val default_options : options
(** Lookahead 0.5, budget 10k. *)

(** The A* closed set: collision-free at every device size. The
    pre-rewrite key truncated each physical index to one byte, so on
    devices with more than 256 physical qubits distinct mappings
    collided and live search states were silently pruned. Keys are an
    incrementally-maintained Zobrist hash, and every key match is
    verified against the stored table. Expanded mappings are stored
    flat, one slot of [n_prog] ints each, in an open-addressed table
    that a generation stamp empties between layers, so one set serves a
    whole route. Exposed so the >256-qubit collision regression test can
    probe the key discipline directly. *)
module Closed : sig
  type t

  val create : n_prog:int -> n_phys:int -> t
  (** Empty closed set for mappings of [n_prog] program qubits onto
      [n_phys] physical qubits. Deterministic: same dimensions, same
      keys. *)

  val add : t -> Qls_layout.Mapping.t -> bool
  (** [add t m] inserts [m]; [true] iff it was not already present.
      Distinct mappings are never conflated, whatever the device size. *)

  val mem : t -> Qls_layout.Mapping.t -> bool
  (** Membership, exact. *)
end

val route :
  ?options:options ->
  ?initial:Qls_layout.Mapping.t ->
  Qls_arch.Device.t ->
  Qls_circuit.Circuit.t ->
  Qls_layout.Transpiled.t
(** Run the mapper. The default initial placement is identity (QMAP's
    heuristic default), which is part of why its gap is large. *)

val router : ?options:options -> unit -> Router.t
(** Package as ["qmap"]. *)
