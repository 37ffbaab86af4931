(** Self-contained on-disk format for QUBIKOS instances.

    A distributed benchmark is only useful if its optimality claim travels
    with it: the format stores the circuit, the device name, the designed
    schedule and the per-section metadata, so a consumer can reload an
    instance and re-run {!Certificate.check} locally instead of trusting
    the producer.

    The format is a line-oriented plain-text format (versioned header,
    one record per line); circuits embed their OpenQASM 2 form, so the
    circuit part remains readable by any quantum toolchain. Devices are
    stored by registry name ({!Qls_arch.Topologies.by_name}). In version
    2, a section is [section <i> special <ci>] plus [backbone <ci> ...]:
    positions in the circuit, nothing the certificate could trust instead
    of the gates (version 1 also stored copies of the section's graph,
    SWAP and mappings, and is rejected). *)

val to_string : Benchmark.t -> string
(** Serialise an instance.
    @raise Invalid_argument if the instance's device is not resolvable by
    name through the registry (anonymous custom devices cannot travel). *)

val of_string : string -> Benchmark.t
(** Parse an instance.
    @raise Failure with a line-numbered message on malformed input
    (QASM included; an [initial] record that is not one distinct device
    qubit per program qubit; an [ops] gate outside the circuit or SWAP
    not of two distinct device qubits), an unknown device name, or a
    version other than 2 (naming both and the remedy,
    [qubikos generate --save]). *)

val save : string -> Benchmark.t -> unit
(** [save path bench] writes {!to_string} to [path]. *)

val load : string -> Benchmark.t
(** [load path] reads and parses [path]. *)
