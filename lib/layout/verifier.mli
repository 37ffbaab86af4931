(** Independent validity checker for transpiled circuits.

    Every router result and every QUBIKOS designed schedule in this
    repository passes through this verifier, so a routing bug cannot
    silently corrupt an experiment. A transpiled circuit is valid iff:

    - {b completeness} — every source gate appears exactly once;
    - {b order} — for each program qubit, the source gates touching it
      appear in their original relative order (gates on disjoint qubits
      commute, so per-qubit order preservation is exactly semantic
      equivalence for layout purposes);
    - {b connectivity} — every two-qubit source gate executes on a coupled
      physical pair under the mapping in effect at its position;
    - {b swap legality} — every SWAP acts on a coupled physical pair.

    One {!Transpiled.iter_mapped} pass over the ops checks all four. *)

type violation =
  | Missing_gate of int        (** source gate never emitted *)
  | Duplicated_gate of int     (** source gate emitted twice *)
  | Order_broken of { qubit : int; earlier : int; later : int }
      (** gates [earlier] and [later] on [qubit] were emitted in reverse order *)
  | Uncoupled_gate of { op_index : int; gate : int; phys : int * int }
      (** two-qubit gate landed on a non-coupled pair *)
  | Uncoupled_swap of { op_index : int; phys : int * int }
      (** SWAP on a non-coupled pair *)

val pp_violation : Format.formatter -> violation -> unit
(** Human-readable violation. *)

type report = { swap_count : int; depth : int }
(** Summary of a valid transpiled circuit. *)

val check : Transpiled.t -> (report, violation list) result
(** Full check; collects every violation rather than stopping at the
    first.
    @raise Invalid_argument on a gate index outside the source circuit
    or a SWAP that does not name two distinct device qubits. *)

val is_valid : Transpiled.t -> bool
(** [is_valid t] is [true] iff {!check} returns [Ok _]. *)

val check_exn : Transpiled.t -> report
(** Like {!check}.
    @raise Failure listing the violations if invalid. *)
