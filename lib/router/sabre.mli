(** SABRE / LightSABRE (Li, Ding & Xie 2019; Zou et al. 2024).

    The stock configuration reproduces the published Qiskit cost model the
    paper's case study (§IV-C) hinges on: when the front layer is blocked,
    every SWAP touching a front-layer qubit is scored

    {v
      score(s) = max(decay) * ( basic(F) / |F|  +  w * lookahead(E) / |E| )
    v}

    where [basic] sums post-SWAP physical distances over the front layer
    [F], [lookahead] sums them over the {e extended set} [E] (the next
    20 two-qubit gates, each weighted equally, [w = 0.5]), and [decay]
    penalises recently swapped qubits ([+0.001] per use, reset every [5]
    rounds and on progress). The paper shows this equal weighting of near
    and far lookahead gates produces provably suboptimal routing on
    QUBIKOS circuits and suggests decaying the lookahead with
    distance-from-execution; [lookahead_decay] implements that fix and is
    exercised by the case-study experiment.

    LightSABRE refinements implemented: best-of-N randomised trials and a
    release valve that escapes oscillation by routing the oldest blocked
    gate along a shortest path.

    Initial mappings, unless supplied, are refined with SABRE's
    bidirectional passes: forward and backward routing passes alternate,
    each seeding the next pass's initial mapping with the final mapping of
    the previous one. *)

type options = {
  trials : int;  (** independent randomised trials, best SWAP count wins *)
  seed : int;  (** base RNG seed; trial [i] uses an independent stream *)
  lookahead_decay : float option;
      (** [None] = stock equal weighting; [Some gamma] weights the [k]-th
          extended-set gate by [gamma^k] (paper §IV-C's proposed fix) *)
  bidirectional_passes : int;
      (** mapping-refinement passes before the final forward pass;
          [2] gives the classic forward-backward-forward SABRE *)
}
(** The cost model's other parameters are constants at the Qiskit values
    above: extended set 20 at weight 0.5, decay [+0.001] reset every 5
    rounds. The release valve tolerates 32 consecutive non-progressing
    SWAPs before it fires, and candidates within an absolute [1e-12] of
    the best score count as tied. *)

val default_options : options
(** 1 trial, seed 0, no lookahead decay, 2 refinement passes. *)

val with_trials : int -> options -> options
(** Functional update of {!field-trials}. *)

val route :
  ?options:options ->
  ?jobs:int ->
  ?initial:Qls_layout.Mapping.t ->
  Qls_arch.Device.t ->
  Qls_circuit.Circuit.t ->
  Qls_layout.Transpiled.t
(** Run SABRE. When [initial] is given, trials keep that placement fixed
    and only randomise tie-breaking (router-only evaluation mode).

    With [trials > 1] the trials run in parallel on a
    {!Qls_harness.Pool} of domains (single-trial routing stays inline and
    spawns nothing). [jobs] caps the worker domains (clamped to [>= 1];
    default [min trials (Pool.recommended_jobs ())]; [~jobs:1] runs the
    trials inline on the calling domain). Each trial's RNG stream and
    initial placement are functions of [(seed, trial)] alone and the best
    result is selected by a fold in trial order (earlier trial wins
    SWAP-count ties), so the routed circuit is byte-identical to the
    historical sequential loop at any parallelism. Each trial runs under a {!Qls_cancel.child} of the
    caller's ambient token: deadlines and cancellation propagate into the
    fan-out, and trial heartbeats keep the parent token live.

    Options are validated on entry: a NaN or negative [lookahead_decay]
    raises [Invalid_argument] instead of silently corrupting SWAP scoring
    (a NaN weight makes every comparison false, degrading selection to
    first-candidate with no error anywhere).

    @raise Invalid_argument on invalid [options]. *)

val router : ?options:options -> unit -> Router.t
(** Package as a {!Router.t} named ["sabre"] (or ["sabre-decay"] when
    [lookahead_decay] is set). *)

(** Instrumentation for the §IV-C case study: the scores SABRE assigned to
    each candidate SWAP at one decision point. *)
type decision = {
  front_gates : (int * int) list;  (** program-qubit pairs blocked in [F] *)
  candidates : ((int * int) * float) list;
      (** physical SWAP candidates with their scores, best first *)
  chosen : int * int;  (** the SWAP SABRE picked *)
}

val route_traced :
  ?options:options ->
  ?initial:Qls_layout.Mapping.t ->
  Qls_arch.Device.t ->
  Qls_circuit.Circuit.t ->
  Qls_layout.Transpiled.t * decision list
(** Single-trial routing that records every SWAP decision (uses trial 0's
    stream; ignores [trials]). *)
