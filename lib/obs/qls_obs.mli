(** Structured tracing + metrics for the router, SAT solver, generator
    and campaign harness.

    {b Spans} carry a name, a site (coarse subsystem label — ["router"],
    ["sat"], ["gen"], ["harness"]), a start time relative to one process
    epoch, a duration, and optional attributes. Two sinks:

    - {e JSONL}: one flat, CRC-sealed line per finished span, each
      attribute a member of its own under an ["attr."]-prefixed key,
      written and read back through {!Qls_sealed.Log} — the same
      crash-truncation contract as the result store: concurrent domains
      never interleave within a line and a kill can only tear the final
      line, which the seal catches on read-back.
    - {e Chrome trace-event}: a [{"traceEvents":[…]}] JSON file written
      at {!shutdown}, loadable in [chrome://tracing] or Perfetto
      (complete ["ph":"X"] events, microsecond timestamps).

    {b Overhead contract.} Tracing is off by default. When disabled,
    {!enabled} is a single atomic load, {!start} returns the static
    {!none} span without allocating, and {!stop} on it returns
    immediately; {!with_span} calls the body directly. Hot loops guard
    attribute construction on {!enabled} so the router bench geomeans
    are unaffected with tracing compiled in but disabled. Instrumented
    code never consumes RNG, so routed outputs are bit-identical with
    tracing on and off.

    {b Metrics} are process-global named {!counter}s (atomic ints) and
    fixed-bucket {!histogram}s, always on (they cost an atomic RMW),
    independent of the trace sink. *)

type value = Int of int | Float of float | Str of string
(** Attribute values — rendered as JSON numbers/strings. *)

type span
(** A started span; stopped at most once. *)

type format = Jsonl | Chrome

val enabled : unit -> bool
(** One atomic load: is a trace sink armed? Hot paths branch on this
    before building attribute lists. *)

val none : span
(** The inert span: {!stop} on it is a no-op. {!start} returns it when
    tracing is disabled, so callers never need a null check. *)

val start : ?site:string -> string -> span
(** Begin a span (default site ["app"]). Allocation-free no-op returning
    {!none} when tracing is disabled. *)

val stop : ?attrs:(string * value) list -> span -> unit
(** Finish the span and emit it to the armed sink with the attributes.
    Callers on hot paths should guard [~attrs] construction with
    {!enabled} — the list is evaluated before the call either way. *)

val with_span :
  ?site:string -> ?attrs:(unit -> (string * value) list) -> string ->
  (unit -> 'a) -> 'a
(** Run the body inside a span; [attrs] (evaluated after the body, so it
    can report results) is only called when tracing is enabled. The span
    is closed even when the body raises. *)

(** {1 Metrics} *)

type counter

val counter : string -> counter
(** Get-or-create the process-global counter with this name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val counters : unit -> (string * int) list
(** All counters, sorted by name with [String.compare]. *)

type histogram

val histogram : ?bounds:float array -> string -> histogram
(** Get-or-create a fixed-bucket histogram. [bounds] are ascending
    upper bounds (sorted defensively); one overflow bucket is added.
    Defaults span 1 ms to 60 s — the task-latency range. *)

val observe : histogram -> float -> unit
(** Count one sample. @raise Invalid_argument on NaN. *)

val histogram_counts : histogram -> float array * int array
(** [(bounds, counts)] with [counts] one longer (overflow bucket). *)

val histogram_total : histogram -> int

val approx_quantile : histogram -> float -> float option
(** Upper-bound estimate of the [q]-quantile (the smallest bucket bound
    covering a [q] fraction of samples); [None] when empty. *)

val reset_metrics : unit -> unit
(** Zero every counter and histogram (tests and bench isolation). *)

(** {1 Sink control} *)

val tracing_to : ?format:format -> string -> unit
(** Arm tracing into [path] and set the process epoch. Format inferred
    from the suffix when not given: [.jsonl] → {!Jsonl}, anything else →
    {!Chrome} (so [--trace out.json] loads in the Chrome importer). *)

val shutdown : unit -> unit
(** Disarm tracing and finalise the sink: close the JSONL handle, or
    write the accumulated Chrome [traceEvents] file. Idempotent. *)

(** {1 Reading traces back} *)

type record = {
  r_name : string;
  r_site : string;
  r_tid : int;
  r_start : float;
  r_dur : float;
  r_attrs : (string * string) list;
      (** attributes in emission order, keys without their ["attr."]
          prefix: a {!Str} value unescaped, a number as its raw text *)
}

val load_jsonl : string -> record list * int
(** Parse a JSONL trace in file order: [(spans, rejected)] where
    [rejected] counts lines that fail their seal, carry none, or don't
    parse as a span (torn tail after a kill). A missing file is an empty
    trace. *)
