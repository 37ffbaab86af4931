(** The campaign engine: a deterministic task set executed on a domain
    pool, checkpointed to a JSONL store, resumable after a kill.

    A campaign is a list of {!Task.t} plus an [exec] function supplied
    by the consumer (the evaluation layer injects instance generation
    and routing here; the harness itself knows nothing about circuits).
    Tasks are independent and carry their own seeds, so results are
    bit-identical whatever the worker count or completion order.

    Lifecycle of each task: checkpoint lookup (skip if already done) →
    {!Runner.run} (exception classification, timeout, classified retry
    with backoff) → optional degradation along the [fallback] chain →
    store append → progress update → failure-budget check. An individual
    failure becomes a typed [Failed] row; only a store I/O error can
    abort the campaign outright.

    {b Failure budget.} With [failure_budget] set, the campaign watches
    the fresh-failure rate and stops starting tasks once it crosses the
    threshold (after 10 fresh results): a doomed sweep — wrong
    binary, dead store disk, every task timing out — costs minutes, not
    the night. Unstarted tasks are reported [Failed] with a retryable
    ["not run: …"] error at site ["campaign"] and are {e not}
    checkpointed, so a plain resume re-runs exactly them.

    {b Degradation.} With [fallback] set, a task whose own tool failed
    (after its retries) is re-executed with the fallback tool; success
    is recorded as {!Task.Degraded} — in the store, the progress line
    and the aggregates — never silently promoted to [Done]. *)

type config = {
  jobs : int;  (** worker domains; 1 = run inline, no domains spawned *)
  timeout : float option;  (** per-attempt wall-clock seconds *)
  retries : int;  (** extra attempts after a retryable failure *)
  backoff : float;  (** base retry backoff seconds (see {!Runner}) *)
  store_path : string option;  (** JSONL checkpoint; [None] = in-memory only *)
  resume : bool;  (** load [store_path] and skip recorded tasks *)
  rerun_failed : bool;  (** on resume, re-execute tasks recorded [failed] *)
  fsync : bool;  (** fsync the store on every append *)
  failure_budget : float option;
      (** abort when fresh failures exceed this rate (in [0..1]) *)
  fallback : (string -> string option) option;
      (** per-tool degradation chain, e.g. ["exact" -> Some "sabre"] *)
  report : (string -> unit) option;  (** progress-line sink after each task *)
}

val default_config : unit -> config
(** All worker domains the machine recommends; no timeout, store,
    budget, fallback or reporting; default backoff. *)

type row = { task : Task.t; status : Task.status; resumed : bool }
(** One task's terminal state; [resumed] marks results satisfied from
    the checkpoint rather than executed by this run. *)

val stderr_report :
  ?tty:bool -> ?emit:(string -> unit) -> total:int -> string -> unit
(** A ready-made [report] sink: rewrites one status line in place when
    stderr is a tty, otherwise prints ~20 lines over the campaign. The
    call counter is atomic — worker domains all report through the one
    closure. [tty] overrides the [isatty] probe and [emit] replaces the
    stderr write (both for tests; defaults probe stderr and print to
    it). *)

val run : config -> exec:(Task.t -> Task.outcome) -> Task.t list -> row list
(** Execute the campaign; rows come back in task-list order. [exec] must
    be pure up to its task argument (same task ⇒ same outcome) for
    resume and parallel determinism to hold, and safe to call from
    several domains at once. Corrupt checkpoint lines found on resume
    are quarantined with a warning and their tasks re-run. *)

val outcomes : row list -> (Task.t * Task.outcome) list
(** Fully successful rows only — degraded rows are deliberately
    excluded; fetch them with {!degraded}. *)

val degraded : row list -> (Task.t * Task.degradation) list
(** Rows rescued by the fallback chain, with the original error. *)

val failures : row list -> (Task.t * Herror.t) list
(** Failed rows with their typed errors. *)

val aborted : row list -> string option
(** The failure-budget abort message, when the campaign stopped early. *)
