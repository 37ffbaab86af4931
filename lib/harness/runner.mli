(** Per-task isolation: exceptions, wall-clock timeouts, classified
    bounded retry with exponential backoff.

    A diverging or crashing router must cost the campaign one [failed]
    line, not the run. {!run} wraps a task body so that any exception
    becomes a typed {!Herror.t} (classified by {!Herror.of_exn}), and
    (when a timeout is configured) a task overrunning its wall-clock
    budget fails with class [Timeout].

    {b Retry policy.} Only {e retryable} errors ([Transient], [Timeout])
    are retried — a [Permanent] error is deterministic, so re-running it
    buys the same failure at full price, and a [Corrupt] one must be
    quarantined, not retried. Attempt [n] (0-based) sleeps
    [backoff * 2^n] seconds first (capped at [backoff_max]), scaled by a
    deterministic per-task jitter in [[0.5, 1.5)] derived from the task
    seed — reproducible, but decorrelated across a failed point's tasks.

    {b Timeouts} are implemented by running the body on a sibling thread
    of the worker domain and blocking on a completion pipe with
    [Unix.select] — a true blocking wait, so the worker burns no CPU
    while a slow task runs (the stdlib [Condition] has no timed wait,
    which is why a pipe plays the condition-variable role here). OCaml threads cannot be
    killed, so a body that overruns is {e abandoned}: its failure is
    recorded immediately and the worker moves on, but the thread keeps
    running until it returns on its own (its result is discarded; no
    shared state leaks). Two consequences worth knowing: the abandoned
    thread shares its domain's runtime lock, slowing that worker until
    it finishes; and [Domain.join] at the end of the campaign waits for
    any thread still running, so a {e truly} divergent task delays final
    exit even though every result is already checkpointed — killing that
    campaign and rerunning with resume completes it instantly. This
    trades a bounded leak for campaign progress — the right trade for an
    overnight evaluation sweep.

    {b Fault injection.} Each attempt visits the {!Qls_faults} site
    ["runner.exec"] (keyed by [key]) {e inside} the guarded body, so
    injected exceptions are classified and injected delays can trip the
    real timeout. *)

type config = {
  timeout : float option;  (** wall-clock seconds per attempt *)
  retries : int;  (** extra attempts after a retryable failure *)
  backoff : float;  (** base backoff seconds; [0.] = retry immediately *)
  backoff_max : float;  (** cap on the exponential backoff *)
}

val default : config
(** No timeout, no retries, backoff 50 ms doubling up to 2 s. *)

val backoff_delay : config -> seed:int -> attempt:int -> float
(** The exact pause before retry [attempt] (0-based) for a task with
    [seed] — exposed so tests can assert the schedule is deterministic. *)

val run :
  ?site:string ->
  ?key:string ->
  ?seed:int ->
  config ->
  (unit -> 'a) ->
  ('a * int, Herror.t) result
(** Run one task body under the config. [site] names the fault-injection
    and error-classification site (default ["runner.exec"]), [key]
    identifies the task to the fault plan (use {!Task.id}), [seed]
    drives the backoff jitter (use {!Task.rng_seed}). [Ok (v, n)] took
    [n] attempts ([1] = first try), so the store keeps the real count;
    [Error] carries the classified error of the last attempt, with
    [attempts] set. Each attempt is traced as a ["runner.attempt"] span
    (with a ["runner.backoff"] span for each retry pause) and timed into
    the ["runner.attempt_seconds"] histogram. *)
