(** Quantum gates, as far as layout synthesis cares about them.

    Layout synthesis is insensitive to the unitary a gate implements; only
    its qubit footprint matters (paper §II). Gates therefore carry a name
    (kept for QASM round-tripping and debugging) plus one or two program
    qubit indices. *)

type t =
  | G1 of { name : string; q : int }          (** single-qubit gate *)
  | G2 of { name : string; a : int; b : int } (** two-qubit gate on distinct qubits *)

val g1 : string -> int -> t
(** [g1 name q] is a single-qubit gate. @raise Invalid_argument if [q < 0]. *)

val g2 : string -> int -> int -> t
(** [g2 name a b] is a two-qubit gate.
    @raise Invalid_argument if [a = b] or either is negative. *)

val h : int -> t
(** Hadamard. *)

val x : int -> t
(** Pauli-X. *)

val cx : int -> int -> t
(** CNOT with control [a], target [b]. *)

val cz : int -> int -> t
(** Controlled-Z. *)

val swap : int -> int -> t
(** An explicit SWAP gate (appears in transpiled circuits). *)

val is_two_qubit : t -> bool
(** Whether the gate acts on two qubits. *)

val is_swap : t -> bool
(** Whether the gate is a SWAP (by name). *)

val name : t -> string
(** The gate's name. *)

val qubits : t -> int list
(** The qubits the gate acts on (one or two elements). *)

val pair : t -> int * int
(** The qubit pair of a two-qubit gate.
    @raise Invalid_argument on a single-qubit gate. *)

val acts_on : t -> int -> bool
(** [acts_on g q] is [true] iff [g] touches qubit [q]. *)

val map_qubits : (int -> int) -> t -> t
(** [map_qubits f g] renames the qubits of [g] through [f].
    @raise Invalid_argument if the renaming collapses a two-qubit gate. *)

val equal : t -> t -> bool
(** Structural equality. *)

val to_string : t -> string
(** [to_string g] is e.g. [cx(3,7)] or [h(2)]. *)
