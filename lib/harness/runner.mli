(** Per-task isolation: exceptions, wall-clock timeouts, classified
    bounded retry with exponential backoff.

    A diverging or crashing router must cost the campaign one [failed]
    line, not the run. {!run} wraps a task body so that any exception
    becomes a typed {!Herror.t} (classified by {!Herror.of_exn}).

    {b Retry policy.} Only {e retryable} errors ([Transient], [Timeout])
    are retried — a [Permanent] error is deterministic, so re-running it
    buys the same failure at full price, and a [Corrupt] one must be
    quarantined, not retried. Attempt [n] (0-based) sleeps
    [backoff * 2^n] seconds first (capped at 2 s), scaled by a
    deterministic per-task jitter in [[0.5, 1.5)] derived from the task
    seed — reproducible, but decorrelated across a failed point's tasks.

    {b Timeouts.} A timed attempt runs under a {!Qls_cancel} deadline,
    the token serve requests carry, so a body that overruns stops at its
    next poll (a router's round or search node, a SAT restart, an
    encoding block, a generator section) and nothing of it runs on once
    {!run} returns; one that never polls is reported when it returns.
    Either way the error is [Timeout], ["timeout after <limit>s"].

    {b Fault injection.} Each attempt visits the {!Qls_faults} site
    ["runner.exec"] (keyed by [key]) {e inside} the guarded body, so
    injected exceptions are classified and an injected delay past the
    budget is reported [Timeout] when it ends. *)

type config = {
  timeout : float option;  (** seconds per attempt (> 0); 1e9+ means no limit *)
  retries : int;  (** extra attempts after a retryable failure *)
  backoff : float;  (** base backoff seconds; [0.] = retry immediately *)
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
