(** OLSQ2-style SAT formulation of optimal layout synthesis.

    This is the reproduction's closest analogue of the paper's §IV-A
    verifier: like OLSQ2 (Lin et al., DAC 2023), it encodes the
    transition form [C0·T0·C1·…·Tk-1·Ck] into propositional clauses and
    gives them to a CDCL SAT solver ({!Qls_sat.Solver}); iterating over
    the SWAP bound [k] yields the provable optimum.

    Encoding for a bound [k], blocks [t ∈ 0..k]:
    - [x(q,p,t)] — program qubit [q] sits on physical qubit [p] during
      block [t] (exactly-one per [(q,t)], at-most-one per [(p,t)]);
    - [b(g,t)] — gate [g] executes in block [t] (exactly-one per [g];
      predecessors in the dependency DAG must land in an earlier-or-equal
      block);
    - adjacency — [b(g,t) ∧ x(a,p,t)] forces [x(b,p',t)] for some
      neighbour [p'] of [p];
    - [s(e,t)] — transition [t] applies the SWAP on coupler [e], or the
      distinguished "no swap" option (exactly-one per [t]); frame clauses
      carry every qubit's position from block [t] to [t+1] accordingly.

    {!check} encodes and solves one bound. {!minimum_swaps} walks the
    bound through one {!Incremental} session: it encodes once at the
    maximum bound and decides each [k] under assumptions forcing the
    trailing transitions to the "no swap" option, so clauses learned
    refuting bound [k] carry into the attempt at [k+1].

    Exponential like every complete method — intended for the §IV-A
    regime, and cross-validated in the test suite against
    {!Qls_router.Exact} and the brute-force oracle. *)

type verdict =
  | Feasible of Qls_layout.Transpiled.t
      (** witness decoded from the SAT model and re-verified *)
  | Infeasible  (** UNSAT: no solution within the SWAP bound *)
  | Unknown  (** conflict budget exhausted *)

val check :
  ?conflict_budget:int ->
  swaps:int ->
  Qls_arch.Device.t ->
  Qls_circuit.Circuit.t ->
  verdict
(** Decide "executable with at most [swaps] SWAPs" by a fresh SAT solve
    (default budget: 2 million conflicts).
    @raise Invalid_argument if [swaps < 0] or the circuit has more
    qubits than the device.
    @raise Too_large if the encoding is above {!clause_limit}. *)

exception Too_large of { clauses : int; limit : int }
(** Raised by {!check} and {!Incremental.create}, before any clause is
    added, when the encoding would add [clauses] clauses, more than
    [limit] ({!clause_limit}). *)

val clause_limit : int
(** 25 million clauses, a policy set on a 2-core machine with 8 GB of
    RAM: between the largest encoding seen to fit there (Eagle at 3,000
    gates and [k = 4], about 21.5 million clauses in 2.4 GB) and the
    smallest seen to run out of memory under a 3 GB address-space cap
    (the same instance in a session at [k = 8], about 40 million). At
    that ratio it keeps an encoding under about 3 GB; a host with more
    memory could encode more. *)

val clause_count :
  session:bool -> Qls_arch.Device.t -> Qls_circuit.Circuit.t -> k:int -> int
(** The clauses the encoding of bound [k] adds: {!check}'s, or with
    [session] an {!Incremental} session's, which adds its earliest-block
    clauses. A closed form over the circuit's program qubits, two-qubit
    gates and their dependency arcs, the device's qubits and couplers,
    and [k]; it builds the circuit's DAG and nothing else. *)

type optimum =
  | Optimal of { swaps : int; witness : Qls_layout.Transpiled.t }
  | Unknown_above of { refuted_below : int }

val minimum_swaps :
  ?max_swaps:int ->
  ?conflict_budget:int ->
  Qls_arch.Device.t ->
  Qls_circuit.Circuit.t ->
  optimum
(** Iterative deepening over the SWAP bound (default [max_swaps] 8),
    deciding [k = 0, 1, …] in one {!Incremental.session}.
    [conflict_budget] is {e per bound}.
    @raise Too_large as {!Incremental.create}. *)

(** One encoding, many bounds: a session holds a single incremental
    {!Qls_sat.Solver} over the bound-[max_swaps] transition encoding plus
    earliest-block canonicity clauses (a satisfiability-preserving
    symmetry breaker: with a "no swap" transition at [t], a gate may only
    sit in block [t+1] if one of its DAG predecessors does). Bound
    [k <= max_swaps] is decided under assumptions [s(none, t)] for
    [t ∈ k..max_swaps-1] — nothing is re-encoded, and learned clauses,
    activities and phases persist across bounds. *)
module Incremental : sig
  type session

  val create :
    ?max_swaps:int ->
    Qls_arch.Device.t ->
    Qls_circuit.Circuit.t ->
    session
  (** Encode the instance once at bound [max_swaps] (default 8).
      @raise Invalid_argument if the circuit has more qubits than the
      device.
      @raise Too_large if the encoding is above {!clause_limit}. *)

  val max_swaps : session -> int
  (** The session's encoding bound: the largest [swaps] {!check}
      accepts. *)

  val check : ?conflict_budget:int -> session -> swaps:int -> verdict
  (** Decide bound [swaps] under assumptions (default budget: 2 million
      conflicts, counted per call). Verdicts agree with the fresh
      {!Olsq.check} at every bound.
      @raise Invalid_argument if [swaps < 0] or [swaps > max_swaps]. *)

  val clauses : session -> int
  (** Clauses the session's encoding added, as counted by the encoder
      (0 for a trivial instance, which needs no SAT). *)

  val solves : session -> int
  (** SAT solve calls made through this session. *)
end
