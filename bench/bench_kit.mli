(** What the checked benches share: the [BENCH_*.json] file format,
    the baseline gates, the command line and the wall clock.

    A bench file is a header followed by one entry object per line:

    {v
{
  "schema": 1,
  "bench": "router",
  "mode": "quick",
  "entries": [
    {"router":"sabre","device":"aspen4","gate_budget":16,...},
    {"router":"mlqls","device":"aspen4","gate_budget":16,...}
  ]
}
    v}

    Each bench keeps its own record type and says how to turn it into
    an {!entry} and back. Entry lines are parsed with
    {!Qls_sealed.fields_of_line}, so the committed baselines diff line
    by line and need no JSON library. *)

(** {1 Entries} *)

type value =
  | Int of int
  | Float of int * float  (** decimals written, value *)
  | String of string
  | Bool of bool

type entry = (string * value) list
(** Fields in the order they are written. *)

type file = { bench : string; mode : string; entries : entry list }

val to_json : file -> string
(** The file's bytes. A [Float (d, x)] is written with [d >= 1]
    decimals, so it reads back as a float.
    @raise Invalid_argument on a string value that would read back as
    a number or a boolean, or a float with no decimals. *)

val read : string -> file
(** Read a file written by {!write}. A value reads back as a boolean,
    an int or a float by its text (a float's decimals are the digits
    after its point), anything else as a string, so
    [to_json (read path)] is the file's bytes.
    @raise Failure ["PATH:LINE: reason"] on a line that is neither the
    header nor a whole entry object, and ["PATH: reason"] on a file
    without a [schema] 1 header naming its bench and mode. *)

val entry_of_json : string -> entry
(** One flat JSON object, its values typed as {!read} types them.
    @raise Failure on anything else. *)

val load : string -> (entry -> 'a) -> 'a list
(** [load path decode] reads [path] and decodes each entry.
    @raise Failure ["PATH:LINE: reason"] also when [decode] fails on
    an entry (a missing or mistyped field). *)

val int : entry -> string -> int
val float : entry -> string -> float
val string : entry -> string -> string
val bool : entry -> string -> bool
(** Typed field access for [decode]. @raise Failure on a missing field
    or one of another type. *)

(** {1 Gates}

    A gate compares a fresh run against a baseline and collects
    problems in the order they are found. *)

type gate

val gate : baseline:string -> gate
(** An empty gate against the baseline file [baseline]. *)

val fail : gate -> ('a, unit, string, unit) format4 -> 'a
(** Record a problem. *)

val pair :
  gate -> key:('a -> string) -> base:'a list -> 'a list -> ('a * 'a) list
(** [pair g ~key ~base fresh] matches each fresh entry with the
    baseline entry of the same key, in fresh order. A fresh entry the
    baseline lacks is a problem: it would escape every other gate. *)

val exact : gate -> string -> string -> expected:int -> int -> unit
(** [exact g id name ~expected v]: a deterministic counter must equal
    [expected]. *)

val no_rise :
  gate -> string -> ?quantum:float -> string -> base:float -> float -> unit
(** [no_rise g id name ~base v]: [v] may not exceed [base + quantum]
    (default [0.]). The quantum absorbs a baseline's rounding to its
    written decimals. *)

val geomean :
  gate -> string -> string -> tolerance:float -> (float * float) list -> unit
(** [geomean g id name ~tolerance pairs]: the geometric mean of the
    fresh/baseline ratios over [(fresh, base)] pairs may not exceed
    [1 + tolerance]. Pairs with a non-positive baseline are skipped. *)

val problems : gate -> string list

(** {1 Command line} *)

type scale = Quick | Default | Full

val string_of_scale : scale -> string

type cli = { scale : scale; check : string option; update : bool }

val cli :
  bench:string ->
  default:scale ->
  ?full:bool ->
  ?extra:(Arg.key * Arg.spec * Arg.doc) list ->
  unit ->
  cli
(** Parse the command line: [--quick], [--full] (unless [~full:false]),
    [--check FILE], [--update] and the bench's [extra] flags.
    Without a scale flag a run is at [default], and [--update] at
    [Quick], the scale CI checks. Exits 2 on an unknown argument. *)

val finish :
  bench:string -> cli -> entry list -> (string -> string list) -> unit
(** [finish ~bench cli entries check] writes the run to
    [BENCH_<bench>.json] under [--update], else to
    [BENCH_<bench>.fresh.json]. Under [--check FILE] it then prints
    [check FILE]'s problems and exits 1 if there are any. *)

(** {1 Timing} *)

val timed : (unit -> 'a) -> 'a * float
(** The result and its wall-clock seconds. *)

val best_of : runs:int -> (unit -> 'a) -> 'a * float
(** The first run's result and the fastest of [runs >= 1] runs. *)
