(** The [qubikos serve] daemon: a long-lived routing service.

    One process owns the expensive state — devices with their APSP
    tables, certified QUBIKOS instances, routed results — in bounded
    {!Qls_harness.Cache}s shared across every connection, and schedules the actual
    routing work on a {!Qls_harness.Pool} of worker domains. Clients
    speak the {!Protocol} over a Unix-domain socket and/or a loopback
    TCP port; each accepted connection gets a reader thread (I/O
    threads multiplex on a domain; the CPU-bound work is on the pool).

    {b Admission control.} The pool queue is bounded; when it is full a
    request is answered immediately with the typed [overloaded]
    response instead of being queued — latency stays bounded and the
    client decides whether to retry.

    {b Failure model} (DESIGN.md §12 has the full contract):
    per-request deadlines ([deadline_ms] / [default_deadline_ms]) are
    enforced cooperatively at router-round / SAT-restart /
    generator-phase checkpoints and answered with the typed
    [deadline_exceeded] response; a pool watchdog declares a worker
    whose heartbeat goes quiet past [hang_threshold] lost, answers its
    request with [kind:"internal"], and spawns a replacement domain;
    socket reads are bounded by [io_timeout] (per frame) and
    [idle_timeout] (between frames), writes by [SO_SNDTIMEO]; the
    [health] verb reports readiness inline even under saturation.

    {b Drain.} On SIGTERM (or {!initiate_shutdown}) the daemon stops
    accepting connections and reads, lets every admitted request finish
    and its response flush, then closes the request log and returns
    from {!run}. Requests that arrive during the drain are answered
    with [kind:"draining"]. The sealed request log is flushed per line
    throughout, so even a later [SIGKILL] can tear at most the final
    line — which loading quarantines. *)

type config = {
  socket_path : string option;  (** Unix-domain listener *)
  tcp_port : int option;  (** loopback TCP listener *)
  jobs : int;
      (** worker domains on the routing pool; below the core count, the
          reader threads also parse inline circuits before admission, on
          the core the workers leave free (DESIGN.md §12) *)
  queue_capacity : int;  (** admitted-but-not-running bound *)
  request_log : string option;  (** sealed JSONL request log *)
  default_deadline_ms : int option;
      (** applied to route/evaluate/certify requests that carry no
          [deadline_ms] of their own *)
  io_timeout : float option;
      (** per-frame read budget (slow-loris reaping) and the socket
          send timeout; [None] waits forever *)
  idle_timeout : float option;
      (** how long a connection may sit silent between frames before it
          is reaped; [None] keeps idle connections forever *)
  hang_threshold : float option;
      (** pool watchdog: a worker whose job heartbeat goes quiet this
          long is declared lost and replaced; [None] disables
          supervision *)
}

val default_config : config
(** No listeners (callers must set at least one), [jobs = 2], queue
    capacity 64, no request log, no default deadline, 30 s frame-I/O
    budget, 300 s idle reap, 30 s watchdog hang threshold. The caches
    are not configurable: they retain 16 devices, 128 instances and
    1,024 routed results, and [stats] reports each capacity. *)

type t

val create : config -> t
(** Allocate caches, start the pool, open the listeners and the request
    log. @raise Invalid_argument if no listener is configured.
    @raise Unix.Unix_error if a listener cannot bind. *)

val run : t -> unit
(** Serve until a shutdown is initiated, then drain and return. Call at
    most once. *)

val initiate_shutdown : t -> unit
(** Begin the graceful drain; safe from a signal handler and from any
    thread. Idempotent. *)

val install_signal_handlers : t -> unit
(** Route SIGTERM and SIGINT to {!initiate_shutdown} and ignore
    SIGPIPE (a client gone mid-response must not kill the daemon). *)

val bound_tcp_port : t -> int option
(** The actual TCP port after binding ([tcp_port = Some 0] asks the
    kernel to pick); [None] when no TCP listener is configured. *)
