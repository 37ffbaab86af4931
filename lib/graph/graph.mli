(** Immutable, simple, undirected graphs over vertices [0 .. n-1].

    This is the shared graph substrate of the whole library: device coupling
    graphs ({!Qls_arch.Device}), circuit interaction graphs
    ({!Qls_circuit.Interaction}) and QUBIKOS section graphs are all values
    of this type. Vertices are dense integers; edges are unordered pairs
    stored canonically with the smaller endpoint first.

    The representation keeps both a sorted adjacency array (for O(deg)
    neighbour iteration and O(log deg) membership) and the canonical edge
    list (for O(m) edge iteration), so all common queries are cheap. *)

type t
(** An undirected simple graph. *)

type edge = int * int
(** An undirected edge, canonically [(u, v)] with [u < v]. *)

val create : int -> edge list -> t
(** [create n edges] is the graph on vertices [0 .. n-1] with the given
    edges. Edges may be given in either orientation; duplicates are merged;
    self-loops are rejected.
    @raise Invalid_argument on a self-loop or an endpoint outside
    [\[0, n)]. *)

val empty : int -> t
(** [empty n] is the edgeless graph on [n] vertices. *)

val n_vertices : t -> int
(** Number of vertices. *)

val n_edges : t -> int
(** Number of (undirected) edges. *)

val edges : t -> edge list
(** Canonical edge list, sorted lexicographically. *)

val edge_array : t -> edge array
(** Same as {!edges} but as a fresh array. *)

val edge_at : t -> int -> edge
(** [edge_at g i] is edge [i] of the canonical (lexicographically sorted)
    edge list, O(1) and allocation-free — the router hot path resolves
    candidate edge indices through this.
    @raise Invalid_argument if [i] is outside [\[0, n_edges g)]. *)

val incident_edges : t -> int -> int array
(** [incident_edges g v] is the ascending array of indices (into the
    canonical edge list) of the edges touching [v]. Precomputed at
    construction; the caller must not mutate it. *)

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] is [true] iff [{u, v}] is an edge. Order-insensitive. *)

val neighbors : t -> int -> int list
(** [neighbors g v] is the sorted list of neighbours of [v]. *)

val neighbors_array : t -> int -> int array
(** [neighbors_array g v] is the internal sorted neighbour array of [v].
    The caller must not mutate it. *)

val degree : t -> int -> int
(** [degree g v] is the number of neighbours of [v]. *)

val max_degree : t -> int
(** Maximum vertex degree, [0] for the empty graph. *)

val degree_histogram : t -> (int * int) list
(** [degree_histogram g] lists [(d, count)] pairs, ascending in [d], for
    every degree that occurs. *)

val add_edges : t -> edge list -> t
(** [add_edges g es] is [g] with the extra edges (duplicates ignored). *)

val induced : t -> int list -> t * int array
(** [induced g vs] is the subgraph induced by the distinct vertices [vs],
    relabelled densely in the order given, together with the array mapping
    new labels back to the original vertices. *)

val is_connected : t -> bool
(** Whether the graph is connected ([true] for graphs with [<= 1]
    vertices). *)

val components : t -> int list list
(** Connected components as sorted vertex lists, ordered by smallest
    member. *)

val fold_edges : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_edges f g acc] folds [f u v] over canonical edges in sorted
    order. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** [iter_edges f g] iterates [f u v] over canonical edges. *)

val equal : t -> t -> bool
(** Structural equality (same vertex count, same edge set). *)

val relabel : t -> int array -> t
(** [relabel g perm] renames vertex [v] to [perm.(v)]. [perm] must be a
    permutation of [0 .. n-1].
    @raise Invalid_argument if [perm] is not a permutation of the right
    size. *)

val complement_edges : t -> edge list
(** All non-edges of [g], canonical and sorted. *)
