(** Qubit mappings: bijections from program qubits to physical qubits.

    A mapping [f : Q -> P] (paper §II) assigns each program qubit a
    distinct physical qubit. This library works in the regime
    [|Q| <= |P|]; the inverse direction is kept materialised so both
    lookups are O(1). SWAP gates act on *physical* qubits and exchange
    whatever program qubits (or free slots) currently live there. *)

type t
(** An injective program→physical assignment. *)

val identity : n_program:int -> n_physical:int -> t
(** Program qubit [q] on physical qubit [q].
    @raise Invalid_argument if [n_program > n_physical]. *)

val of_array : n_physical:int -> int array -> t
(** [of_array ~n_physical a] maps program qubit [q] to [a.(q)].
    @raise Invalid_argument if entries collide or fall outside
    [\[0, n_physical)]. *)

val random : Qls_graph.Rng.t -> n_program:int -> n_physical:int -> t
(** A uniformly random injective assignment. *)

val n_program : t -> int
(** Number of program qubits. *)

val n_physical : t -> int
(** Number of physical qubits. *)

val phys : t -> int -> int
(** [phys m q] is the physical qubit holding program qubit [q]. *)

val prog : t -> int -> int option
(** [prog m p] is the program qubit on physical qubit [p], if any. *)

val occupant : t -> int -> int
(** [occupant m p] is the program qubit on physical qubit [p], or [-1]
    when the slot is empty. Allocation-free variant of {!prog} for inner
    search loops (an [option] costs a box per call). *)

val phys_table : t -> int array
(** The program→physical table itself, zero-copy: [(phys_table m).(q) =
    phys m q]. Read-only — the array is the mapping's own state (same
    aliasing contract as {!Qls_graph.Apsp.row}; DESIGN.md §14). Hot
    search loops fetch it once per expanded state so a position lookup
    is one array index, not an accessor call with a bounds check. *)

val to_array : t -> int array
(** The program→physical table (fresh copy). *)

val swap_physical : t -> int -> int -> t
(** [swap_physical m p p'] exchanges the contents of the two physical
    qubits (either may be empty). This is the action of a SWAP gate.
    @raise Invalid_argument if [p] or [p'] is out of range, or [p = p']. *)

val swap_tables : q2p:int array -> p2q:int array -> int -> int -> unit
(** The same action in place on raw tables ([p2q] holds [-1] for an empty
    slot), so a walk over a route copies nothing per SWAP.
    @raise Invalid_argument exactly as {!swap_physical}. *)

val apply_swaps : t -> (int * int) list -> t
(** Folds {!swap_physical} over a SWAP list, left to right. *)

val equal : t -> t -> bool
(** Pointwise equality. *)
