(** The output of layout synthesis (paper §II): an initial mapping plus the
    source gates interleaved with inserted SWAPs —
    [C0 · T0 · C1 · T1 · ... · Tn-1 · Cn].

    Source gates are referenced by index into the source circuit so that
    the {!Verifier} can confirm nothing was dropped, duplicated or
    reordered illegally. SWAPs act on physical qubits. *)

type op =
  | Gate of int        (** index of a source-circuit gate *)
  | Swap of int * int  (** SWAP on two coupled physical qubits *)

type t
(** A transpiled circuit. *)

val create :
  source:Qls_circuit.Circuit.t ->
  device:Qls_arch.Device.t ->
  initial:Mapping.t ->
  op list ->
  t
(** Bundle a result. No validity checking happens here — that is the
    {!Verifier}'s job — but sizes must agree.
    @raise Invalid_argument if the mapping's qubit counts do not match the
    source circuit and device. *)

val source : t -> Qls_circuit.Circuit.t
(** The original circuit. *)

val device : t -> Qls_arch.Device.t
(** The target device. *)

val initial_mapping : t -> Mapping.t
(** The initial program→physical assignment. *)

val ops : t -> op list
(** The transpiled operation sequence. *)

val swap_count : t -> int
(** Number of inserted SWAP gates — the paper's headline metric. *)

val swaps : t -> (int * int) list
(** The inserted SWAPs in order. *)

val final_mapping : t -> Mapping.t
(** Mapping after all SWAPs have acted. *)

val mapping_at : t -> int -> Mapping.t
(** [mapping_at t k] is the mapping in effect before op [k]. *)

val to_physical_circuit : t -> Qls_circuit.Circuit.t
(** The hardware-level circuit: source gates rewritten onto physical
    qubits (under the mapping in effect at their position), SWAPs emitted
    as [swap] gates. This is what would be sent to the machine, and what
    {!Qls_circuit.Qasm.to_string} serialises for cross-checking. *)

val iter_mapped : t -> (int -> op -> int array -> unit) -> unit
(** [iter_mapped t f] calls [f k op q2p] on each op in order, [q2p] being
    the program→physical table once op [k] has acted. One table is
    updated in place ({!Mapping.swap_tables}); [f] may only read it.
    @raise Invalid_argument on a SWAP {!Mapping.swap_physical} rejects. *)

val depth : t -> int
(** Depth of {!to_physical_circuit}, measured by one {!iter_mapped} walk
    with a frontier per physical qubit, without building the circuit. *)

val pp : Format.formatter -> t -> unit
(** Prints op counts and the SWAP positions. *)
