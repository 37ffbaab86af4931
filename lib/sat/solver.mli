(** A CDCL SAT solver with incremental solving under assumptions.

    OLSQ2 — the exact tool the paper uses to verify QUBIKOS optimality —
    is a SAT-based solver (PySAT + Z3). This module is the corresponding
    substrate built from scratch: conflict-driven clause learning with
    two-watched-literal propagation, first-UIP learning, VSIDS-style
    activity ordered by a binary heap, phase saving and geometric
    restarts. It is used by {!Qls_router.Olsq} to solve the transition
    encoding of layout synthesis, giving the repository a second, fully
    independent exact optimality checker (cross-validated against
    {!Qls_router.Exact} and the brute-force oracle in the test suite).

    The solver is {e incremental} in the MiniSat sense: {!add_clause} is
    legal at any point, and {!solve} accepts a list of assumption
    literals that hold for that call only. Learned clauses, variable
    activities and saved phases persist across calls — sound because a
    learned clause is implied by the clause database alone, never by the
    assumptions (assumptions enter the search as removable decision
    levels, not as clauses). When a solve is unsatisfiable {e because of}
    the assumptions, {!unsat_core} names the subset responsible.

    Variables are integers [1 .. n]; literals are non-zero integers where
    [-v] is the negation of [v] (DIMACS convention). *)

type t
(** A solver instance. *)

type result = Sat | Unsat | Unknown
(** [Unknown] is returned only when a conflict budget is exhausted, in
    which case {!budget_exhausted} is also set. *)

val create : int -> t
(** [create n_vars] makes a solver over variables [1 .. n_vars]. Its
    search is fixed: VSIDS activity decay 0.95, a restart every
    100 × 1.5ⁿ conflicts, and a negative initial phase for every
    variable. *)

val add_clause : t -> int list -> unit
(** Add a clause (a disjunction of literals) — at any time, including
    between {!solve} calls (the solver first backtracks to the root
    level). Adding the empty clause, or clauses that immediately conflict
    at level 0, makes the instance permanently unsatisfiable.
    Tautologies and duplicate literals are handled; literals already
    false at level 0 are simplified away.
    @raise Invalid_argument on a literal out of range. *)

val solve : ?conflict_budget:int -> ?assumptions:int list -> t -> result
(** Run the CDCL search (default budget: 2 million conflicts).

    [assumptions] are literals assumed true {e for this call only}: they
    are consumed as a prefix of pseudo-decision levels, so nothing about
    them persists — except learned clauses, which never mention them by
    construction and therefore transfer to future calls with different
    assumptions. If the result is [Unsat] and the assumptions are to
    blame, {!unsat_core} returns the responsible subset; if the database
    is unsat on its own, every future {!solve} returns [Unsat]
    immediately and the core is empty.

    @raise Invalid_argument on an assumption literal out of range. *)

val value : t -> int -> bool
(** [value t v] is the assignment of variable [v] in the model after
    {!solve} returned [Sat].
    @raise Invalid_argument if there is no model. *)

val unsat_core : t -> int list
(** After {!solve} returned [Unsat]: a subset of the assumption literals
    (DIMACS, sorted) sufficient for unsatisfiability together with the
    clause database. Empty when the database alone is unsat (or after
    [Sat]/[Unknown]). *)

val budget_exhausted : t -> bool
(** True iff the last {!solve} returned [Unknown] because it ran out of
    conflict budget. This is the explicit signal distinguishing budget
    exhaustion from a deadline-raised exit ({!Qls_cancel.Expired}
    propagates as an exception and never returns [Unknown]); callers
    must not infer it from counter values. *)

val stats : t -> int * int
(** [(conflicts, decisions)] of the last solve. *)

val restarts : t -> int
(** Geometric restarts performed during the last solve. *)

val learned : t -> int
(** Learnt clauses pushed into the database during the last solve (unit
    learnts, which need no clause record, are not counted). *)

val solves : t -> int
(** Completed {!solve} calls on this instance. *)

val total_stats : t -> int * int * int * int
(** [(conflicts, decisions, restarts, learned)] summed over all completed
    {!solve} calls — the per-call {!stats} accumulate into these. *)
