(** Machine-checkable optimality certificate for QUBIKOS instances.

    The paper (§III-D) proves each instance's optimal SWAP count from how
    it is built; this module re-proves it for any given instance, so
    neither a generator bug nor a forged [.qbk] file can ship a wrong
    "known" optimum. It reads only the circuit, the device, each
    section's special and backbone indices and the designed schedule,
    and reads the circuit a bounded number of times:

    - {b Lemma 1} — the degree pigeonhole (§III-A): the graph of the
      circuit's two-qubit gates at a section's backbone indices has a
      k-th largest degree above the device's k-th largest for some k, or
      more edge-bearing vertices than the device has qubits, so the
      section cannot execute under any single mapping. The test is
      sufficient, not exact: a section it does not refute fails, embeddable
      or not. Every generated section passes it by construction;
    - {b Lemma 2} — a backward sweep from special gate [i] to special
      gate [i-1] and a forward one from [i-1] to [i], with per-qubit
      flags: each backbone gate of section [i] has a dependency path from
      special gate [i-1] and one to special gate [i];
    - {b Lemma 3} follows from Lemma 2 and is not checked on its own: a
      gate of section [i] reaches special gate [i], which reaches every
      gate of section [i+1];
    - there are exactly [optimal_swaps] sections, and the designed
      schedule routes the instance's circuit on its device and passes the
      {!Qls_layout.Verifier} with exactly [optimal_swaps] SWAPs (the
      upper bound).

    Lemmas 1–2 give the lower bound: between consecutive special gates
    the sections run in disjoint windows, and a window with no SWAP would
    run its whole section under one mapping. {!check_exact} additionally
    confirms it with an independent exact solver (§IV-A). *)

type failure =
  | Section_degrees_fit of int
      (** Lemma 1 is not proved: the section's degree sequence fits under
          the device's *)
  | Dependency_broken of { section : int; gate : int }
      (** Lemma 2 fails for circuit-gate [gate] of [section] *)
  | Section_count of { sections : int; claimed : int }
      (** the number of sections is not the claimed optimum *)
  | Designed_invalid of string
      (** the designed schedule routes another circuit, or on another
          device, or does not verify *)
  | Wrong_swap_count of { designed : int; claimed : int }
      (** the designed schedule uses a different SWAP count than claimed *)

val pp_failure : Format.formatter -> failure -> unit
(** Human-readable failure. *)

val check : Benchmark.t -> (unit, failure list) result
(** Re-prove optimality from scratch. [Ok ()] means the instance's
    [optimal_swaps] is certified.
    @raise Invalid_argument if a backbone or special index is out of
    range or names a single-qubit gate. *)

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
}

type exact_method =
  | Sat  (** {!Qls_router.Olsq}: OLSQ2's SAT formulation — the default,
             and by far the faster refuter *)
  | Search  (** {!Qls_router.Exact}: the direct transition search *)

val check_exact :
  ?solver:exact_method ->
  ?node_budget:int ->
  ?conflict_budget:int ->
  Benchmark.t ->
  exact_result
(** Full §IV-A-style verification: structural certificate plus
    independent exact refutation of [optimal_swaps - 1]. Each method has
    its own budget in its own unit — [node_budget] bounds the [Search]
    solver's search-tree nodes (default 5e7) and [conflict_budget] bounds
    the [Sat] solver's conflicts (default 2e6); neither is rescaled into
    the other. *)
