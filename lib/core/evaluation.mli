(** Experiment harness reproducing the paper's evaluation (§IV).

    Two experiments:

    - {b Optimality study} (§IV-A, {!run_optimality_study}) — generate
      small instances, re-prove each with the structural
      {!Certificate} and the independent {!Qls_router.Exact} solver.
    - {b Tool evaluation} (§IV-B, Fig. 4, {!run_figure}) — generate
      instances per (device, SWAP count), run each tool, and report the
      SWAP ratio [mean inserted SWAPs / optimal SWAPs] per point.

    All configurations are explicit records so the bench harness and CLI
    can run both scaled-down (default) and paper-scale experiments. *)

type tool_point = {
  device_name : string;
  tool_name : string;
  optimal : int;  (** designed SWAP count of each instance at this point *)
  circuits : int;  (** instances the tool itself completed *)
  degraded : int;
      (** instances rescued by the fallback chain — honest coverage,
          excluded from this tool's swap statistics *)
  mean_swaps : float;
  ratio : float;  (** the paper's SWAP ratio: [mean_swaps / optimal] *)
  min_swaps : int;
  max_swaps : int;
  mean_seconds : float;
}
(** One point of Fig. 4: a (device, tool, SWAP count) triple. *)

type figure_config = {
  swap_counts : int list;  (** paper: [\[5; 10; 15; 20\]] *)
  circuits_per_point : int;  (** paper: 10 *)
  gate_budget : int;  (** paper: 300 / 1500 / 1500 / 3000 by device *)
  single_qubit_ratio : float;
  sabre_trials : int;  (** paper: 1000 *)
  seed : int;
}
(** Parameters of one Fig.-4 panel. *)

val paper_gate_budget : Qls_arch.Device.t -> int
(** The paper's two-qubit gate count for a device: 300 for 16 qubits,
    1500 for ~50, 3000 for 127 (interpolated by qubit count for other
    devices). *)

val default_figure_config : Qls_arch.Device.t -> figure_config
(** Scaled-down defaults that regenerate a panel in minutes: SWAP counts
    [\[5; 10; 15; 20\]], 3 circuits per point, paper gate budget, 5 SABRE
    trials. *)

val paper_figure_config : Qls_arch.Device.t -> figure_config
(** Full paper-scale parameters (10 circuits per point, 1000 SABRE
    trials). Expect hours of runtime. *)

val validate_tools : string list -> unit
(** Check every name against the tool registry.
    @raise Qls_harness.Herror.Error (class [Permanent], site
    ["campaign.tools"]) listing {e all} unknown names and the available
    registry, so a typo fails the campaign up front — before any worker
    domain spawns or store line is written — instead of as a mid-run
    [failwith] out of some task. *)

val campaign_tasks :
  ?tools:Qls_router.Router.t list ->
  ?names:string list ->
  config:figure_config ->
  Qls_arch.Device.t ->
  Qls_harness.Task.t list
(** Decompose a figure into independent (n_swaps, circuit, tool)
    campaign tasks, ordered point-major so siblings of an instance run
    close together and share its generation. [names] overrides the tool
    set with plain registry names (e.g. [\["sabre"; "olsq"\]]) without
    constructing routers up front; it wins over [tools]. The effective
    tool set is passed through {!validate_tools} first. *)

val campaign_exec :
  ?tools:Qls_router.Router.t list ->
  device:Qls_arch.Device.t ->
  Qls_harness.Task.t ->
  Qls_harness.Task.outcome
(** Execute one task: generate (and certify, once per instance — shared
    through a cache so the point's tools compare on the same circuit)
    the task's instance, resolve its tool — from [tools] by name when
    given, else from the registry seeded with {!Qls_harness.Task.rng_seed} —
    route, verify, and time it. Pure up to the task, so campaign results
    are scheduling-independent; safe to call from several domains.
    @raise Certificate.Optimality_violated when the verified route uses
    fewer SWAPs than the certified optimum: the task fails (permanently)
    instead of reporting a count that would falsify the certificate. *)

val cached_instances : unit -> int
(** Instances {!campaign_exec}'s cache holds now: the most recently
    built ones, at most 16. *)

val aggregate_campaign :
  ?tools:Qls_router.Router.t list ->
  ?names:string list ->
  config:figure_config ->
  device:Qls_arch.Device.t ->
  Qls_harness.Campaign.row list ->
  tool_point list
(** Fold campaign rows back into Fig.-4 points. A point whose tasks all
    failed is skipped with a warning on stderr instead of raising —
    a lost point must not take down the aggregation of an overnight
    run. *)

val default_fallback : string -> string option
(** The degradation chain the CLI's [--degrade] installs: the exact
    solvers and heavier heuristics fall back toward SABRE, so a
    timed-out task costs a [Degraded] line instead of a lost point. *)

val run_campaign :
  ?tools:Qls_router.Router.t list ->
  ?names:string list ->
  ?jobs:int ->
  ?timeout:float ->
  ?retries:int ->
  ?backoff:float ->
  ?store:string ->
  ?resume:bool ->
  ?rerun_failed:bool ->
  ?fsync:bool ->
  ?failure_budget:float ->
  ?degrade:bool ->
  ?progress:bool ->
  config:figure_config ->
  Qls_arch.Device.t ->
  Qls_harness.Campaign.row list
(** Run a figure's campaign on the worker pool ([jobs] defaults to 1 =
    sequential in-process; pass
    [Qls_harness.Pool.recommended_jobs ()] to use the machine) with an
    optional JSONL checkpoint [store] (optionally [fsync]ed per append),
    [resume] from it ([rerun_failed] re-executes tasks the store records
    as failed instead of keeping their failure), per-task [timeout]
    seconds and bounded classified [retries] (with exponential [backoff]),
    an optional [failure_budget] that aborts a doomed sweep early,
    [degrade] to enable the {!default_fallback} chain, and a live
    [progress] line. *)

val run_figure :
  ?tools:Qls_router.Router.t list ->
  ?jobs:int ->
  config:figure_config ->
  Qls_arch.Device.t ->
  tool_point list
(** One full Fig.-4 panel: {!run_campaign} over every configured SWAP
    count, then {!aggregate_campaign}. Instances are shared across tools
    (paired comparison), and every routed result is re-verified.
    Results are bit-identical for a fixed config seed whatever [jobs]
    is.
    @raise Failure naming each failed task and its error: with no
    retries, timeout or fallback, a failed task is a bug. *)

val tool_gap_summary : tool_point list -> (string * float) list
(** Mean SWAP ratio per tool across all points — the paper's headline
    "optimality gap" numbers (abstract: 63x / 117x / 250x / 330x). *)

val pp_points : Format.formatter -> tool_point list -> unit
(** Render points as an aligned text table. *)

val pp_summary : Format.formatter -> Qls_harness.Campaign.row list -> unit
(** Fold campaign rows into per-tool latency/retry/degrade summaries,
    sorted by tool name (resumed rows count with their recorded seconds
    and attempts), and render them as an aligned table, followed by the
    router rounds/gate and SAT effort footers when the {!Qls_obs}
    counters saw any work this process. *)

type optimality_row = {
  o_device : string;
  o_swaps : int;
  o_circuits : int;
  o_certified : int;  (** structural certificate passed *)
  o_exact_confirmed : int;  (** exact solver refuted [n - 1] swaps *)
  o_exact_refuted : int;
      (** exact solver found an [n - 1]-swap solution, disproving the
          certified optimum *)
  o_exact_unknown : int;  (** exact solver budget ran out *)
  o_mean_gates : float;  (** two-qubit gates per instance *)
}
(** One row of the §IV-A study. *)

val optimality_failure : optimality_row -> string option
(** [Some line] naming the row if an instance failed its structural
    certificate or the exact solver refuted it (a generator or
    certificate bug); [None] otherwise, also when a budget ran out. *)

val run_optimality_study :
  ?circuits_per_count:int ->
  ?swap_counts:int list ->
  ?gate_budget:int ->
  ?saturation_cap:int ->
  ?solver:Certificate.exact_method ->
  ?node_budget:int ->
  ?conflict_budget:int ->
  ?seed:int ->
  Qls_arch.Device.t ->
  optimality_row list
(** §IV-A: small instances (default: SWAP counts 1–4, 10 circuits each,
    gate budget 30, saturation cap 1), each re-proved structurally and by
    the exact solver (the SAT formulation by default, like the paper's
    OLSQ2). [node_budget] bounds the [Search] method's nodes;
    [conflict_budget] bounds the [Sat] method's conflicts. The paper uses
    100 circuits per count. *)

val pp_optimality : Format.formatter -> optimality_row list -> unit
(** Render the study as an aligned text table. *)
