(** Interaction graphs (paper §II, Fig. 1(b)).

    The interaction graph [G_I(Q, E_Q)] of a circuit has one vertex per
    program qubit and an edge [{q, q'}] whenever some two-qubit gate acts
    on [q] and [q']. A circuit is executable without SWAP insertion iff its
    interaction graph admits a {!Qls_graph.Vf2} monomorphism into the
    device coupling graph. *)

val of_circuit : Circuit.t -> Qls_graph.Graph.t
(** The interaction graph over all [n_qubits] of the circuit (qubits with
    no two-qubit gates are isolated vertices). *)

val of_pairs : n_qubits:int -> (int * int) list -> Qls_graph.Graph.t
(** Interaction graph straight from a list of two-qubit gate pairs. *)

val swap_free : Circuit.t -> Qls_graph.Graph.t -> bool
(** [swap_free c coupling] is [true] iff the circuit can be executed with
    no SWAP gates on the device (monomorphism test). *)
