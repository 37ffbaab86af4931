(** Cooperative cancellation tokens with optional deadlines.

    A {!token} travels with a unit of work (a serve request's pool job, a
    timed campaign attempt) and serves two purposes:

    - {b Deadline enforcement.} A token created with [?deadline_ms] carries an
      absolute expiry. Work that calls {!poll} at its natural checkpoints
      (router rounds, SAT restarts, generator sections) raises {!Expired} once
      the budget is spent; the exception carries both the elapsed time and the
      configured limit so callers can produce a typed response.
    - {b Liveness heartbeat.} Every {!poll} stamps the token with the current
      time. A supervisor (the pool watchdog) reads {!last_poll_ms} to tell a
      slow-but-alive job from a genuinely stuck one.

    Tokens are ambient: {!with_token} installs a token in domain-local storage
    for the duration of a thunk, and {!poll} reads it back, so deep library
    code (routers, the SAT solver, the generator) needs no plumbing — it just
    calls [Qls_cancel.poll ()]. When no token is installed, {!poll} is a
    cheap no-op, so instrumented code costs nothing on the batch/CLI paths.

    Checkpoint granularity is deliberately coarse (one poll per router round /
    SAT restart / generator section or 1,024 inserted gates): cancellation
    latency is bounded by the longest inter-checkpoint stretch, which the
    pool watchdog backstops. *)

type token

(** Raised by {!poll} when the installed token's deadline has passed.
    [elapsed_ms] is measured from token creation (so it includes any queue
    wait), and is always [>= limit_ms]. *)
exception Expired of { elapsed_ms : int; limit_ms : int }

val make : ?deadline_ms:int -> unit -> token
(** A fresh token. With [?deadline_ms] (must be [>= 1]), {!poll} raises
    {!Expired} once that many milliseconds have elapsed since [make].
    Without it the token never expires and only tracks heartbeats.

    @raise Invalid_argument if [deadline_ms < 1]. *)

val none : token
(** A shared inert token: never expires, records no heartbeats. This is what
    {!poll} sees when no token is installed. *)

val with_token : token -> (unit -> 'a) -> 'a
(** [with_token t f] installs [t] as the calling domain's ambient token,
    runs [f ()], and restores the previous ambient token (also on raise).
    Nesting is allowed; the innermost token wins. *)

val current : unit -> token
(** The calling domain's ambient token ({!none} when nothing is
    installed). Work that fans out to other domains captures this and
    hands each shard a {!child} of it — ambient tokens are domain-local,
    so they do not cross a [Domain.spawn] on their own. *)

val child : token -> token
(** [child t] is a linked token for one shard of work running on [t]'s
    behalf, typically on another domain. It mirrors [t]'s absolute
    deadline (an expired parent budget expires every child, with the same
    [elapsed]/[limit] report), and every {!poll} on the child also
    heartbeats [t]. [child none] is {!none}. *)

val poll : unit -> unit
(** Checkpoint. Reads the ambient token; if it is {!none} this is a no-op.
    Otherwise stamps the heartbeat, then raises {!Expired} if the deadline
    (when any) has passed. *)

val last_poll_ms : token -> int
(** Wall-clock milliseconds (Unix epoch) of the most recent {!poll} on
    this token or a {!child} of it; its creation time if never polled.
    Returns [0] for {!none}. *)

val created_ms : token -> int
(** Wall-clock milliseconds (Unix epoch) at token creation. [0] for {!none}. *)

val now_ms : unit -> int
(** Current wall clock in whole milliseconds since the Unix epoch — the same
    clock every token uses, exported so supervisors compare like with like. *)
