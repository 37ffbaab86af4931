(** All-pairs shortest-path distances for unweighted graphs.

    Every router in {!Qls_router} scores SWAP candidates by the physical
    distance between the qubits of pending gates, so the device distance
    matrix is computed once per device and shared. *)

type t
(** A precomputed distance matrix. *)

val compute : Graph.t -> t
(** [compute g] runs one BFS per vertex: O(n · (n + m)). Distances between
    disconnected vertices are {!unreachable}. *)

val unreachable : int
(** Sentinel distance for disconnected pairs ([max_int]). *)

val dist : t -> int -> int -> int
(** [dist t u v] is the hop distance from [u] to [v] ([0] when [u = v]). *)

val row : t -> int -> int array
(** [row t u] is the flat preallocated distance row of [u]:
    [(row t u).(v) = dist t u v], with no per-call allocation or copy.
    The returned array aliases the matrix — callers must treat it as
    read-only and must not hold it across a recompute. This is the
    sanctioned hot-path accessor: an inner scoring loop fetches the row
    once and pays a single array index per query. *)

val matrix : t -> int array array
(** [matrix t] is the whole distance matrix: [(matrix t).(u).(v) = dist t u v].
    Same aliasing contract as {!row} (read-only, no copy), one level up:
    fetch it once per search or pass when even the per-row accessor call
    is measurable — a distance query is then two array indexes with no
    cross-module call at all. *)

val diameter : t -> int
(** Largest finite pairwise distance ([0] for graphs with [<= 1]
    vertex).
    @raise Invalid_argument if the graph is disconnected. *)
