(** Gate dependency graph over the two-qubit gates (paper §II, Fig. 1(c)).

    Vertices are the circuit's two-qubit gates (indexed densely, in program
    order); there is an arc [g -> g'] when [g'] is the next two-qubit gate
    after [g] on one of [g]'s qubits. Single-qubit gates impose no
    connectivity constraint and are excluded (they are re-inserted after
    layout synthesis).

    Reachability in this DAG is the paper's [Prev] relation: [g'] is in
    [Prev(g)] iff there is a path [g' ->* g].

    Each vertex has at most two successors and two predecessors (one per
    qubit), kept in flat int arrays with two slots per vertex ([2v],
    [2v + 1]; [-1] empty, never before a filled slot). Arc order is a
    contract: successors ascend (the SABRE extended-set BFS, and so every
    route, depends on it); predecessors are in link order, first operand
    then second ([Qls_router.Olsq]'s clause order depends on it); and
    when both operands were last touched by the same gate there is one
    arc, not two.

    A DAG is immutable once {!of_circuit} returns, so several domains may
    share it (SABRE's parallel trials do). *)

type t
(** A dependency DAG. *)

val of_circuit : Circuit.t -> t
(** Build the DAG of a circuit's two-qubit gates. *)

val n_gates : t -> int
(** Number of two-qubit gates (DAG vertices). *)

val pair : t -> int -> int * int
(** [pair d i] is the qubit pair of DAG vertex [i] (two-qubit gate [i] in
    program order). *)

val circuit_index : t -> int -> int
(** [circuit_index d i] is the position of DAG vertex [i] in the original
    gate sequence (including single-qubit gates). *)

val succ_slots : t -> int array
(** The successor slots, for hot loops: [v]'s direct successors are
    [.(2 * v)] and [.(2 * v + 1)]. Read-only, the same aliasing contract
    as [Qls_arch.Device.distance_row]; cold callers use {!successors}. *)

val successors : t -> int -> int list
(** Direct successors, ascending (a fresh list). *)

val predecessors : t -> int -> int list
(** Direct predecessors in link order (a fresh list). *)

val in_degree : t -> int -> int
(** Number of direct predecessors. *)

val topological_order : t -> int list
(** A topological order (program order is always one; this recomputes via
    Kahn's algorithm as a structural sanity check). *)
