(** Shared routing machinery.

    Every heuristic router in this library follows the same skeleton:
    keep a current mapping, greedily emit every executable gate (eager
    execution never costs SWAPs), and when the front layer is blocked,
    insert a SWAP chosen by the router's own cost function. This module
    owns that skeleton — front-layer maintenance, dependency bookkeeping,
    single-qubit gate scheduling, op-sequence accumulation — so router
    modules contain only their decision logic.

    Single-qubit gates never constrain layout; they are re-attached in a
    per-qubit-order-preserving way: each is emitted immediately before the
    first two-qubit gate that follows it on its qubit (or at the very end).
    The {!Qls_layout.Verifier} accepts the result by construction.

    {2 Round invariance}

    {!swap_candidates}, {!extended_set} and {!remaining_layers} are pure
    queries: they depend only on the current front layer, DAG and mapping,
    all of which change exclusively through {!advance}, {!apply_swap} and
    {!force_route_first}. Between two such mutations — i.e. for the whole
    of one routing round — their results are invariant, so routers must
    build each {e once per round} and reuse the value across every
    candidate SWAP they score. Four always-on {!Qls_obs} counters keep
    that contract observable: [router.extended_set_builds] and
    [router.remaining_layers_builds] count rebuilds (cache misses, not
    calls — both structures survive SWAP-only rounds, so a hoisted
    router builds each at most once per front change),
    [router.swap_candidate_scans] counts {!swap_candidates} calls, and
    [router.phys_front_scanned] totals the physical-front entries those
    calls examined (the sum of the front sizes, not
    [scans * n_qubits]).

    {2 Buffers and live tables}

    The round queries write into int buffers owned by the state
    ({!candidate_pairs}, {!extended_buffer}) and return how many entries
    they wrote; {!phys_table}, {!occupant_table}, {!front_partner} and
    {!front_buffer} are the state's own tables. All of them are
    read-only for callers
    (same aliasing contract as {!Qls_arch.Device.distance_row}) and stay
    valid until the next {!advance}, {!apply_swap} or
    {!force_route_first}, which update them in place. Callers that keep a
    mapping across SWAPs take a {!mapping} snapshot. *)

type t
(** Mutable routing state. Internally owns preallocated scratch arrays
    (coupler marks, BFS visited marks, an epoch-tagged in-degree copy)
    and the result buffers above; every query restores its scratch
    before returning, so calls never observe each other. A state must
    only be used from one domain at a time. *)

val create :
  device:Qls_arch.Device.t ->
  source:Qls_circuit.Circuit.t ->
  dag:Qls_circuit.Dag.t ->
  initial:Qls_layout.Mapping.t ->
  t
(** Fresh state; no gates are emitted yet (call {!advance}). [dag] must
    be [Dag.of_circuit source]. The state only reads it, so one DAG can
    serve any number of states, on any number of domains (SABRE builds
    one per direction per route and shares it with every trial and
    pass).
    @raise Invalid_argument if the mapping sizes disagree with the circuit
    or device, or if the device's coupling graph is disconnected — routing
    across components is ill-posed, and failing here (typed, at the
    boundary) replaces the crashes the routers used to hit mid-round
    ([failwith "no progress"], [Rng.pick] on an empty candidate list). *)

val dag : t -> Qls_circuit.Dag.t
(** The two-qubit dependency DAG of the source circuit. *)

val mapping : t -> Qls_layout.Mapping.t
(** An immutable snapshot of the current program→physical mapping: a
    fresh copy, unaffected by later SWAPs. O(physical qubits); per-round
    loops read {!phys_table} instead. *)

val phys_table : t -> int array
(** The live program→physical table: [(phys_table t).(q)] is the
    physical qubit holding program qubit [q] right now. {!apply_swap}
    updates it in place, so one fetch per routing pass stays current.
    Read-only. *)

val occupant_table : t -> int array
(** The live physical→program table, [-1] for an empty slot; the inverse
    of {!phys_table}, updated in place with it. Read-only. *)

val front_partner : t -> int array
(** The live front partner table: [(front_partner t).(p)] is the physical
    qubit holding the other operand of the front gate on [p], or [-1]
    when no front gate touches [p]. Each program qubit is in at most one
    front gate, so this describes the whole front at physical level.
    Read-only. *)

val front_generation : t -> int
(** Counts front-layer changes: bumps exactly when {!advance} emits
    gates. Structures derived from the front set alone (never from the
    mapping) can be cached on it across SWAP-only rounds. *)

val front : t -> int list
(** DAG vertices whose predecessors have all executed — the SABRE
    "front layer" [F] — as a fresh list. Its order is deterministic: the
    vertices that joined the front last come first. Per-round loops read
    {!front_buffer} instead. *)

val front_count : t -> int
(** Number of front-layer vertices. *)

val front_buffer : t -> int array
(** The live front: entries [0 .. front_count t - 1] are the vertices of
    {!front}, in reverse order. Read-only; valid until the next
    mutation. *)

val done_count : t -> int
(** Number of two-qubit gates already emitted. *)

val remaining : t -> int
(** Number of two-qubit gates not yet emitted. *)

val finished : t -> bool
(** Whether every two-qubit gate has been emitted. *)

val gate_distance : t -> int -> int
(** [gate_distance t v] is the current physical distance between the two
    qubits of DAG vertex [v]. *)

val advance : t -> int
(** Emit every currently executable front gate, transitively; returns how
    many two-qubit gates were emitted. After [advance t = 0] and
    [not (finished t)], the front layer is blocked and a SWAP is needed.
    Allocates nothing unless the op log is full (it starts at one and a
    half times the source's gate count and doubles). *)

val apply_swap : t -> int -> int -> unit
(** [apply_swap t p p'] records a SWAP on the coupled physical pair and
    exchanges the two slots' contents in place — in the mapping tables
    and in {!front_partner}.
    @raise Invalid_argument if [(p, p')] is not a coupler. *)

val swap_count : t -> int
(** SWAPs inserted so far. *)

val force_route_first : t -> unit
(** Escape hatch (LightSABRE's "release valve"): route the lowest-index
    blocked front gate along a shortest physical path, inserting the
    SWAPs directly. Guarantees that the next {!advance} makes progress,
    which keeps every heuristic router's main loop terminating. No-op on
    an empty front. *)

val swap_candidates : t -> int
(** Writes the standard SWAP candidate set — the couplers touching at
    least one physical qubit that holds a front-layer operand — into
    {!candidate_pairs} in ascending coupler id (canonical
    {!Qls_arch.Device.edges}) order, and returns how many it wrote.
    Candidate [i] is the physical pair
    [(buf.(2 * i), buf.(2 * i + 1))], oriented as in the coupler list.
    The physical front is an active {e set} delta-maintained across
    {!advance}/{!apply_swap}, so this costs O(front qubits + couplers
    incident to the front + the marked coupler-id range); it never
    re-scans every qubit, which on a 127-qubit device dominated
    small-front rounds. Round-invariant: build once per routing round. *)

val candidate_pairs : t -> int array
(** The buffer {!swap_candidates} writes. Read-only; valid until the next
    mutation. *)

val extended_set : t -> size:int -> int
(** The SABRE "extended set": up to [size] DAG vertices following the
    front layer, collected breadth-first through the successor relation
    (nearer successors first), written into {!extended_buffer}; returns
    how many. Round-invariant: build once per round and share it across
    every candidate scored that round. The buffer is additionally kept
    keyed on ({!front_generation}, [size]): SWAP-only rounds never change
    the front, so consecutive blocked rounds reuse it and only an
    {!advance} that emitted gates forces a rebuild (DESIGN.md §14). *)

val extended_buffer : t -> int array
(** The buffer {!extended_set} writes, in BFS order. Read-only; valid
    until the next mutation. *)

val pick_tied : rng:Qls_graph.Rng.t -> float array -> int -> int
(** [pick_tied ~rng scores n] draws the SWAP among the [n] candidates
    scored in [scores.(0 .. n-1)] (buffer order): the candidates within
    an absolute [1e-12] of the lowest score, and one [Rng.int] draw over
    them, in order. Returns the candidate's index, or [-1] when none ties
    (a NaN score). Allocates nothing. *)

val remaining_layers : t -> max_layers:int -> int list list
(** ASAP timeslices of the not-yet-emitted two-qubit gates, starting from
    the current front layer, capped at [max_layers] slices. This is the
    lookahead structure of the t|ket⟩-style router. Round-invariant:
    build once per round and share it across every candidate scored that
    round. Cached across SWAP-only rounds exactly like {!extended_set},
    keyed on ({!front_generation}, [max_layers]). *)

val finish : t -> Qls_layout.Transpiled.t
(** Emit the trailing single-qubit gates and package the result. The
    op sequence is logged as ints while routing and decoded into
    {!Qls_layout.Transpiled.op}s only here.
    @raise Invalid_argument if two-qubit gates remain. *)
