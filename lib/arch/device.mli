(** A quantum device, as seen by layout synthesis: a named, connected
    coupling graph with a precomputed all-pairs distance matrix.

    Physical qubits are the graph's vertices. Routers only ever query the
    coupling structure and hop distances, so this type is the whole
    hardware model (paper §II). *)

type t
(** A device. *)

val create : ?allow_disconnected:bool -> name:string -> Qls_graph.Graph.t -> t
(** [create ~name g] wraps a coupling graph.
    @raise Invalid_argument if [g] is disconnected or has no vertices —
    QLS on a disconnected device is ill-posed. [~allow_disconnected:true]
    skips only the connectivity check (for partial-device modelling and
    for tests exercising the routers' typed rejection of disconnected
    hardware); distances across components are {!Qls_graph.Apsp.unreachable},
    and {!Qls_router.Route_state.create} refuses such a device with a
    typed [Invalid_argument]. *)

val name : t -> string
(** Human-readable device name (e.g. ["aspen4"]). *)

val graph : t -> Qls_graph.Graph.t
(** The coupling graph. *)

val equal : t -> t -> bool
(** Same name and same coupling graph. *)

val n_qubits : t -> int
(** Number of physical qubits. *)

val n_edges : t -> int
(** Number of couplers. *)

val distance : t -> int -> int -> int
(** [distance d p p'] is the hop distance between physical qubits.
    Convenience accessor for cold paths; per-candidate router loops must
    use {!distance_row} instead (lint rule [distance-in-loop] enforces
    this). *)

val distance_row : t -> int -> int array
(** [distance_row d p] is the preallocated flat distance row of [p]:
    [(distance_row d p).(p') = distance d p p'], zero-copy. Read-only —
    the array aliases the device's APSP matrix and is shared by every
    caller. Fetch the row once per scoring loop so the hot path is a
    single array index per queried pair. *)

val distance_matrix : t -> int array array
(** [distance_matrix d] is the whole distance matrix,
    [(distance_matrix d).(p).(p') = distance d p p']. Same read-only
    aliasing contract as {!distance_row}, hoisted one level further: the
    innermost router loops (SABRE/tket scoring, the A* excess deltas)
    fetch it once per pass so a distance query is two array indexes with
    no accessor call at all (DESIGN.md §14). *)

val diameter : t -> int
(** Coupling-graph diameter. *)

val coupled : t -> int -> int -> bool
(** Whether a two-qubit gate can run directly on [(p, p')]. *)

val neighbors : t -> int -> int list
(** Physical neighbours of a qubit. *)

val degree : t -> int -> int
(** Coupler count of a qubit. *)

val max_degree : t -> int
(** Largest coupler count on the device. *)

val edges : t -> (int * int) list
(** Canonical coupler list. *)

val edge_at : t -> int -> int * int
(** [edge_at d i] is coupler [i] of the canonical list, O(1).
    @raise Invalid_argument if [i] is outside [\[0, n_edges d)]. *)

val incident_edges : t -> int -> int array
(** [incident_edges d p] is the ascending array of canonical-list indices
    of the couplers touching [p]. Precomputed; do not mutate. The routers
    build their SWAP-candidate sets from this instead of filtering
    {!edges}, so a routing round costs O(front couplers), not
    O(all couplers). *)

val pp : Format.formatter -> t -> unit
(** Prints name, qubit and coupler counts. *)
