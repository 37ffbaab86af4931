(** OpenQASM 2.0 serialisation.

    Benchmarks are exchangeable with the Python QLS ecosystem (Qiskit,
    t|ket⟩, QMAP all consume OpenQASM 2), so the generator can emit
    circuits other tools can read, and the test suite can round-trip.

    {b Grammar read} (one pass, in place): a comment runs from the first
    [//] to the end of its line; statements split on [;]. Statements
    starting with [OPENQASM], [include], [creg], [barrier] or [measure]
    are skipped; [qreg name\[n\]] declares the one register; anything
    else is a gate [name[(params)] reg\[i\][, reg\[j\]]], parameters
    discarded — layout synthesis ignores them.

    Malformed input is a {e typed}, line-numbered {!error} — a bad
    statement or operand, another register, over two operands, a
    negative, repeated or out-of-[qreg] index, a second or missing
    [qreg]. Untrusted text (the CLI, the serve daemon, external suites)
    goes through the [_result] API, which raises nothing. *)

type error = { line : int; message : string }
(** A parse failure; [line] is 1-based ([0] when no line applies, e.g. a
    missing [qreg] or an unreadable file). *)

exception Parse_error of error

val error_to_string : error -> string
(** ["line N: message"] (or just the message when [line = 0]). *)

val to_string : Circuit.t -> string
(** Emit OpenQASM 2.0 in one canonical layout per circuit (the serve route
    cache keys on its hash). SWAPs are [swap]; other names are verbatim. *)

val of_string : string -> Circuit.t
(** Parse the supported OpenQASM 2.0 subset.
    @raise Parse_error on unsupported or malformed input. *)

val of_string_result : string -> (Circuit.t, error) result
(** Exception-free {!of_string}. *)

val write_file : string -> Circuit.t -> unit
(** [write_file path c] writes {!to_string} to [path]. *)

val read_file : string -> Circuit.t
(** [read_file path] parses the file at [path].
    @raise Parse_error on malformed input. *)

val read_file_result : string -> (Circuit.t, error) result
(** Exception-free {!read_file}; an unreadable file (missing,
    permissions) is reported as an [error] with [line = 0]. *)
