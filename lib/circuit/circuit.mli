(** Quantum circuits: a declared qubit count and a gate sequence.

    The sequence order is the program order; the executable partial order
    is derived from it by {!Dag}. Values are immutable. *)

type t
(** A circuit. *)

val create : n_qubits:int -> Gate.t list -> t
(** [create ~n_qubits gates] checks every gate fits in [\[0, n_qubits)].
    @raise Invalid_argument otherwise. *)

val of_array : n_qubits:int -> Gate.t array -> t
(** Like {!create}; the array is copied. *)

val n_qubits : t -> int
(** Declared qubit count. *)

val gates : t -> Gate.t array
(** The gate sequence (fresh copy). *)

val gate : t -> int -> Gate.t
(** [gate c i] is the [i]-th gate. *)

val length : t -> int
(** Total number of gates. *)

val two_qubit_count : t -> int
(** Number of two-qubit gates. *)

val single_qubit_count : t -> int
(** Number of single-qubit gates. *)

val two_qubit_gates : t -> (int * (int * int)) list
(** [(index, (a, b))] for every two-qubit gate, in program order. *)

val two_qubit_pairs : t -> (int * int) list
(** Qubit pairs of the two-qubit gates, in program order. *)

val map_qubits : (int -> int) -> t -> n_qubits:int -> t
(** Renames all qubits; the result has [n_qubits] qubits. *)

val depth : t -> int
(** Circuit depth counting all gates, via ASAP scheduling. *)

val two_qubit_depth : t -> int
(** Depth counting only two-qubit gates. *)

val equal : t -> t -> bool
(** Structural equality: same qubit count and same gate sequence. *)
