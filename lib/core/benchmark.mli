(** A QUBIKOS benchmark instance: a circuit bundled with everything needed
    to know — and re-prove — its optimal SWAP count.

    Construction (paper §III) proceeds section by section: section [i]
    contributes an interaction graph that is not subgraph-monomorphic to
    the device (so it cannot execute under any single mapping), and the
    dependency ordering forces sections to execute serially, so the
    optimal SWAP count of the whole circuit is exactly the number of
    sections. The designed schedule witnessing the upper bound travels
    with the instance. *)

type section = {
  index : int;  (** 1-based section number *)
  special_circuit_index : int;  (** position of the special gate in the circuit *)
  backbone_circuit_indices : int list;
      (** positions of this section's backbone gates (ascending; the
          special gate is last) *)
}
(** Where a section sits in the circuit: all {!Certificate} reads of it. *)

type t = {
  device : Qls_arch.Device.t;
  circuit : Qls_circuit.Circuit.t;  (** full circuit: backbone + fillers *)
  optimal_swaps : int;  (** the provably optimal SWAP count *)
  initial_mapping : Qls_layout.Mapping.t;  (** the designed π₀ *)
  designed : Qls_layout.Transpiled.t;
      (** the designed schedule: a valid transpiled circuit with exactly
          [optimal_swaps] SWAPs *)
  sections : section list;  (** in execution order *)
  seed : int;  (** generation seed, for reproducibility *)
}
(** A benchmark instance. *)

val backbone_indices : t -> int list
(** Circuit indices of all backbone gates, ascending. *)

val filler_count : t -> int
(** Number of two-qubit filler gates (non-backbone). *)

val two_qubit_count : t -> int
(** Total two-qubit gates in the circuit. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: device, gates, optimal SWAPs, sections. *)
