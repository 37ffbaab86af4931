(** Machine-checkable optimality certificate for QUBIKOS instances.

    The paper (§III-D) proves each instance's optimal SWAP count with four
    statements; this module re-proves all of them for any given instance,
    so generator bugs cannot silently ship a benchmark with a wrong
    "known" optimum:

    - {b Lemma 1} — each section's interaction graph admits no
      {!Qls_graph.Vf2} monomorphism into the coupling graph (so the
      section cannot execute under any single mapping);
    - {b Lemma 2} — within a section, every backbone gate is reachable
      from the previous special gate and reaches the section's own special
      gate in the dependency DAG;
    - {b Lemma 3} — consecutive sections are fully serialised (every gate
      of section [i] reaches every gate of section [i+1]);
    - {b Theorem 4 / upper bound} — the designed schedule passes the
      {!Qls_layout.Verifier} with exactly [optimal_swaps] SWAPs.

    Lemmas 1–3 give the lower bound: sections occupy disjoint execution
    windows, and a window with no SWAP would execute its whole section
    under one mapping, contradicting Lemma 1. The designed schedule gives
    the matching upper bound.

    {!check_exact} additionally confirms the lower bound with the
    independent {!Qls_router.Exact} solver (the paper's §IV-A experiment). *)

type failure =
  | Section_embeddable of int
      (** Lemma 1 fails: section's interaction graph fits the device *)
  | Dependency_broken of { section : int; gate : int }
      (** Lemma 2 fails for circuit-gate [gate] of [section] *)
  | Sections_parallel of { earlier : int; later : int }
      (** Lemma 3 fails between two sections *)
  | Designed_invalid of string
      (** the designed schedule does not verify *)
  | Wrong_swap_count of { designed : int; claimed : int }
      (** the designed schedule uses a different SWAP count than claimed *)

val pp_failure : Format.formatter -> failure -> unit
(** Human-readable failure. *)

val check : Benchmark.t -> (unit, failure list) result
(** Re-prove optimality from scratch. [Ok ()] means the instance's
    [optimal_swaps] is certified. *)

val check_exn : Benchmark.t -> unit
(** @raise Failure listing the problems if {!check} fails. *)

exception Optimality_violated of { tool : string; swaps : int; optimum : int }
(** A verified route used fewer SWAPs than its instance's certified
    optimum. Either the certificate or the verifier is wrong, so the
    result is an alarm, never a data point: it must not enter a gap mean
    or a cache. Prints as
    ["optimality violated: <tool> routed with <swaps> SWAPs, below the
    certified optimum <optimum>"]. *)

val check_routed : tool:string -> optimum:int -> int -> unit
(** [check_routed ~tool ~optimum swaps] checks a verified route's SWAP
    count against the certified optimum. Campaign tasks and serve
    responses for generated instances call it before reporting a count.
    @raise Optimality_violated when [swaps < optimum]. *)

type exact_result = {
  certified : bool;  (** structural certificate passed *)
  exact_agrees : bool option;
      (** [Some true] if the exact solver proved no solution with
          [optimal_swaps - 1] SWAPs exists; [Some false] if it found one
          (which would disprove the certificate); [None] if its budget ran
          out *)
  winner_seed : int option;
      (** with [portfolio_seeds]: the seed of the configuration that won
          the race, recorded so the run can be replayed deterministically;
          [None] otherwise *)
}

type exact_method =
  | Sat  (** {!Qls_router.Olsq}: OLSQ2's SAT formulation — the default,
             and by far the faster refuter *)
  | Search  (** {!Qls_router.Exact}: the direct transition search *)

val check_exact :
  ?solver:exact_method ->
  ?node_budget:int ->
  ?conflict_budget:int ->
  ?portfolio_seeds:int list ->
  Benchmark.t ->
  exact_result
(** Full §IV-A-style verification: structural certificate plus
    independent exact refutation of [optimal_swaps - 1]. Each method has
    its own budget in its own unit — [node_budget] bounds the [Search]
    solver's search-tree nodes (default 5e7) and [conflict_budget] bounds
    the [Sat] solver's conflicts (default 2e6); neither is rescaled into
    the other. [portfolio_seeds] (Sat only) races one deterministically
    derived solver configuration per seed and records the winner in
    {!exact_result.winner_seed}. *)
