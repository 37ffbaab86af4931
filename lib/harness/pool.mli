(** A work-stealing worker pool over OCaml 5 domains.

    Workers pull task indices from a shared atomic counter, so load
    balances itself: a worker stuck on a slow task simply stops taking
    new ones while the others drain the queue. Results land in a slot
    per task, so the output order is the input order regardless of which
    domain ran what.

    The callback [f] must be safe to run concurrently from several
    domains (the harness guarantees this by giving every task its own
    seeds and serialising shared sinks behind mutexes). An exception
    escaping [f] tears the pool down {e cleanly}: the remaining workers
    stop taking new tasks, every spawned domain is joined (none leaks,
    whichever domain failed), and the first exception raised is then
    re-raised on the calling domain with its original backtrace.
    Task-level failures that should not abort the campaign must still be
    caught inside [f], which is what {!Runner.run} is for. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default [-j]. *)

val run : jobs:int -> f:(int -> 'a -> 'b) -> 'a array -> 'b array
(** [run ~jobs ~f tasks] applies [f index task] to every task on
    [min jobs (length tasks)] domains (clamped to at least 1; [jobs = 1]
    runs inline on the calling domain, spawning nothing) and returns the
    results in input order. *)

(** {1 Long-lived pool}

    The serving-path variant of {!run}: a fixed set of domains started
    once, fed individual jobs through a bounded queue, each job paired
    with a completion callback. Admission is explicit — when the queue
    is at capacity {!submit} refuses the job instead of queueing it, so
    a server can shed load with a typed response while the workers stay
    saturated.

    Every job carries a {!Qls_cancel.token} — either the caller's (which
    may carry a deadline) or a fresh heartbeat-only one — and an optional
    watchdog supervises the workers through it: a job whose heartbeat
    goes quiet past the hang threshold is declared lost, its callback
    fires with [Error Worker_lost], and a replacement domain restores
    capacity (the stuck domain is abandoned; OCaml domains cannot be
    killed). *)

type pool
(** A running pool of worker domains. *)

type submit_result =
  | Submitted  (** queued; [complete] will eventually run *)
  | Rejected_full  (** queue at capacity; [work] was not enqueued *)
  | Rejected_closed  (** {!drain} already started; no new admissions *)

exception Worker_lost of { job_id : int; stalled_ms : int }
(** Delivered (as [Error Worker_lost]) to the completion callback of a
    job whose worker the watchdog declared lost. [stalled_ms] is how
    long the job's heartbeat had been quiet when it was abandoned. *)

type watchdog = {
  hang_threshold_ms : int;
      (** a busy worker whose job heartbeat (start time or last
          {!Qls_cancel.poll}) is older than this is declared lost *)
  tick_ms : int;  (** monitor wake-up period *)
}

val start :
  ?capacity:int ->
  ?on_callback_error:(exn -> unit) ->
  ?watchdog:watchdog ->
  jobs:int ->
  unit ->
  pool
(** [start ~jobs ()] spawns [jobs] worker domains blocked on an empty
    queue. [capacity] bounds the number of {e queued} (not yet running)
    jobs; default unbounded. [on_callback_error] is invoked (on the
    worker domain) if a completion callback itself raises — the default
    prints to stderr; the worker survives either way. [watchdog] starts
    a monitor thread supervising worker heartbeats; without it, lost
    workers are never detected (the pre-supervision behaviour). *)

val submit :
  ?token:Qls_cancel.token ->
  pool ->
  work:(unit -> 'a) ->
  complete:(('a, exn) result -> unit) ->
  submit_result
(** [submit p ~work ~complete] enqueues [work] to run on some worker
    domain; when it finishes, [complete (Ok v)] or [complete (Error e)]
    runs on that same domain. Returns without blocking. [work] and
    [complete] must be safe to run on another domain.

    [token] (default: a fresh deadline-free token) is installed as the
    ambient {!Qls_cancel} token around [work], so checkpointed library
    code both heartbeats to the watchdog and honours the token's
    deadline: an expired deadline surfaces as
    [complete (Error (Qls_cancel.Expired _))] — including when it
    expired while the job was still queued, in which case [work] never
    runs. A job abandoned by the watchdog completes with
    [Error Worker_lost] instead; whichever of worker and watchdog
    delivers first wins, the other outcome is dropped. The watchdog
    supervises [work], not [complete]: the job has left {!in_flight}
    when [complete] runs, and a callback that blocks holds its worker
    (serve bounds its response writes with a send timeout). *)

val queue_depth : pool -> int
(** Jobs admitted but not yet picked up by a worker. *)

val in_flight : pool -> int
(** Queued plus currently-executing jobs. A job stops counting before
    its completion callback runs, so whoever reads the result the
    callback reports never sees that job in flight. *)

val closing : pool -> bool
(** True once {!drain} has started. *)

val live_workers : pool -> int
(** Workers currently able to take jobs. Equals [jobs] unless a lost
    worker is mid-replacement. *)

val lost_workers : pool -> int
(** Total workers ever declared lost by the watchdog. *)

val watchdog_age_ms : pool -> int option
(** Milliseconds since the watchdog last ticked, or [None] if the pool
    runs unsupervised. A large value means the monitor itself wedged. *)

val drain : pool -> unit
(** Stop admitting ([submit] returns [Rejected_closed]), let every
    already-admitted job run to completion, then join all live worker
    domains — so every callback they run has returned — and stop the
    watchdog. Domains abandoned by the watchdog are {e not} waited for —
    they die with the process. Idempotent: concurrent callers all block
    until the pool is quiescent. *)
