(** The QUBIKOS benchmark generator (paper §III).

    Given a device and a desired optimal SWAP count [n], the generator
    produces a circuit whose optimal SWAP count is exactly [n]:

    + {b SWAP selection} (§III, Fig. 2) — pick a coupler [(p, p')] and an
      {e anchor} program qubit on [p] such that swapping lets the anchor
      reach a new neighbour (the {e target}); such a coupler always exists
      unless the device is complete.
    + {b Non-isomorphic interaction graph} (§III-A) — the anchor interacts
      with all its current neighbours plus, as the {e special gate}, the
      target; every program qubit sitting on a physical qubit of degree
      greater than the anchor's is {e saturated} (interacts with all its
      neighbours). A pigeonhole argument on degrees makes this graph
      non-embeddable: more vertices demand high-degree positions than the
      device has.
    + {b Dependency relation} (§III-B) — connector gates (executable under
      the current mapping) make the section's interaction graph connected;
      a forward BFS edge order from the previous special gate makes every
      section gate depend on it, a reversed BFS edge order towards the new
      special gate makes the special gate depend on every section gate.
    + {b Fillers} — extra two-qubit gates pad the circuit to the requested
      size without changing the optimal count: a filler placed before its
      section's SWAP is executable under the section's entry mapping, one
      placed after it under the exit mapping (the paper's rule that
      [(q2, q7)] "can only be inserted before [g4]"). Optional
      single-qubit gates can be sprinkled in as well.

    The generator asserts the designed schedule validates with exactly [n]
    SWAPs before returning; {!Certificate.check} independently re-proves
    optimality of any instance from its circuit, by the same degree
    pigeonhole and dependency chain. *)

type config = {
  n_swaps : int;  (** number of sections = optimal SWAP count, [>= 1] *)
  gate_budget : int;
      (** total two-qubit gates to aim for; fillers pad the backbone up to
          this count (a backbone larger than the budget is kept whole) *)
  single_qubit_ratio : float;
      (** single-qubit gates sprinkled in, as a fraction of the two-qubit
          count (default 0.) *)
  saturation_cap : int;
      (** maximum number of physical positions a section may be required
          to saturate; anchors needing more are not selected. The default
          ([max_int]) allows any anchor, giving sections that constrain
          large parts of the device (the paper's hard regime); small caps
          keep circuits tiny for exact verification (§IV-A) *)
  seed : int;  (** RNG seed; equal seeds reproduce the instance exactly *)
}
(** Generation parameters. *)

val default_config : config
(** [n_swaps = 1], [gate_budget = 0] (backbone only), no single-qubit
    gates, unlimited saturation, seed 0. *)

val generate : ?config:config -> Qls_arch.Device.t -> Benchmark.t
(** Generate one instance.
    @raise Invalid_argument if [n_swaps < 1], or if the device coupling
    graph is complete (no SWAP can ever be forced — paper §III-A). *)

val generate_suite :
  ?config:config -> count:int -> Qls_arch.Device.t -> Benchmark.t list
(** [generate_suite ~count device] generates [count] instances with seeds
    [seed, seed+1, ...]. *)
