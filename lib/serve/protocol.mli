(** Wire protocol of the [qubikos serve] daemon.

    {b Framing.} Every message — request or response — is one frame:

    {v <decimal-length>\n<payload>\n v}

    where [<decimal-length>] is the byte length of [<payload>] (the
    trailing newline excluded). Length-prefixing keeps the reader
    allocation-bounded and lets a payload contain anything; the trailing
    newline keeps the stream greppable and a hand-rolled client one
    [printf] away (see the README quickstart).

    {b Payloads} are flat JSON objects — the same single-level codec as
    the sealed stores ({!Qls_sealed.fields_of_line}), so one parser
    serves both sides. A request names its verb; every other field has a
    default, so [{"verb":"stats"}] is a complete request. Responses echo
    the request's optional ["id"] and always carry ["ok"] — [true] with
    the verb's payload fields, or [false] with a typed ["kind"]
    (["bad_request"], ["overloaded"], ["draining"],
    ["deadline_exceeded"], ["internal"]) and a human ["error"]. A
    ["deadline_exceeded"] response additionally carries ["elapsed_ms"]
    and ["limit_ms"]. *)

type gen_params = {
  arch : string;  (** device name, as accepted by {!Qls_arch.Topologies.by_name} *)
  n_swaps : int;  (** designed optimal SWAP count (default 5) *)
  gates : int option;  (** two-qubit gate budget (default: paper budget) *)
  seed : int;  (** generator seed (default 0) *)
}
(** Instance-generation parameters; also the certified-instance cache
    key. Defaults mirror the offline CLI so the same request text means
    the same instance in both. *)

type route_params = {
  gen : gen_params;
  tool : string;  (** registry name (default ["sabre"]) *)
  trials : int;  (** SABRE trials (default 20, like the CLI) *)
  qasm : string option;
      (** route this inline OpenQASM 2.0 text instead of a generated
          instance; [gen.n_swaps]/[gen.seed] are ignored for generation
          but still part of the result cache key *)
  deadline_ms : int option;
      (** wall-clock budget for this request, queue wait included; must
          be [>= 1] when present. Deliberately {e not} part of any cache
          key: a deadline bounds time, it does not change the answer. *)
}

type request =
  | Route of route_params  (** route + verify; report swaps/depth/seconds *)
  | Evaluate of route_params
      (** {!Route} on a generated instance, plus the ratio against its
          certified optimum (inline [qasm] is rejected — no known
          optimum to compare against) *)
  | Certify of { gen : gen_params; deadline_ms : int option }
      (** generate and structurally certify an instance *)
  | Stats  (** serving counters, latency quantiles, cache hit rates *)
  | Health
      (** liveness/readiness probe: answered inline (never queued), so
          it works under full saturation — suitable for a container
          healthcheck *)

exception Bad_request of string
(** A frame or payload the protocol rejects; the server answers with a
    [kind:"bad_request"] response rather than dropping the link. *)

val request_of_payload : string -> string option * (request, string) result
(** Parse one request payload, once: its optional ["id"] and the request,
    or why it is a bad request (malformed JSON, an unknown verb, an
    ill-typed field). The id is [None] only when the JSON itself does
    not parse, so a rejected request still gets its id echoed. *)

(** {1 Framing} *)

val read_frame : in_channel -> string option
(** Read one frame; [None] at a clean EOF (connection closed between
    frames). @raise Bad_request on a malformed or oversized length
    line, a truncated payload, or a missing frame terminator. *)

val write_frame : out_channel -> string -> unit
(** Write one frame and flush. Callers serialise per-connection writes
    themselves (the server holds a per-connection mutex). *)

val max_frame : int
(** Upper bound on accepted payload length (16 MiB) — an admission
    guard, not a protocol constant. *)

(** {1 Timeout-aware framing over a raw fd}

    What the server's reader threads use instead of {!read_frame}: a
    buffered [in_channel] blocks without recourse, so a slow-loris
    client (one header byte, then silence) would pin a thread forever.
    This reader owns its buffering over [Unix.read]/[Unix.select] and
    applies two different clocks:

    - [idle_timeout] — how long a connection may sit silent {e between}
      frames before it is reaped (reported as {!Idle}; not an error);
    - [io_timeout] — the absolute budget for one whole frame measured
      from its first byte (raises {!Bad_request}; trickling bytes does
      not reset it). *)

type reader

type frame =
  | Frame of string  (** one complete payload *)
  | Eof  (** clean close between frames *)
  | Idle  (** [idle_timeout] elapsed between frames *)

val reader :
  ?idle_timeout:float ->
  ?io_timeout:float ->
  ?read_hook:(int -> int) ->
  Unix.file_descr ->
  reader
(** Wrap a connection fd. Omitted timeouts mean "wait forever" (the
    pre-PR-7 behaviour). [read_hook] is a fault-injection seam: called
    with the intended read size before every [Unix.read], its return
    value (clamped to [1..size]) caps the bytes requested — a short
    return simulates a torn read; it may also raise or delay.
    @raise Invalid_argument on a timeout [<= 0]. *)

val read_frame_fd : reader -> frame
(** Read one frame under the reader's timeout policy.
    @raise Bad_request as {!read_frame}, plus on an [io_timeout]
    overrun mid-frame. *)

(** {1 Cache keys} *)

val circuit_hash : string -> string
(** FNV-1a 64-bit hash of a circuit's OpenQASM text, as 16 hex digits.
    Content-addressed: the same circuit hashes the same however it was
    obtained (generated or inline). *)

val gen_key : gen_params -> string
(** Injective key of the certified-instance cache. *)

val route_key :
  device:string -> circuit:string -> tool:string -> trials:int -> seed:int ->
  string
(** Injective key of the routed-result cache over the
    [(device, circuit-hash, tool, params, seed)] tuple — every component
    is length-prefixed, so no choice of field values can collide. *)
