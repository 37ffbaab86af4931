(** Common interface for layout-synthesis tools.

    A router consumes a device and a circuit and produces a verified-shape
    {!Qls_layout.Transpiled.t}. Routers accept an optional externally
    chosen initial mapping: the paper (§IV-C) uses this mode to evaluate
    the routing stage in isolation by supplying the known-optimal initial
    mapping of a QUBIKOS circuit. *)

type t = {
  name : string;
  route :
    ?initial:Qls_layout.Mapping.t ->
    Qls_arch.Device.t ->
    Qls_circuit.Circuit.t ->
    Qls_layout.Transpiled.t;
}
(** A named routing tool. *)

val run_verified :
  t ->
  ?initial:Qls_layout.Mapping.t ->
  Qls_arch.Device.t ->
  Qls_circuit.Circuit.t ->
  Qls_layout.Transpiled.t * Qls_layout.Verifier.report
(** Route and {!Qls_layout.Verifier.check_exn} the result; every
    experiment in this repository goes through this entry point. The
    result must route exactly [circuit] ({!Qls_circuit.Circuit.equal})
    on [device] (same name and couplers): the verifier only checks a
    result against its own source and device.
    @raise Failure if the router produced an invalid result or routed
    another circuit or device. *)

val swap_count :
  t ->
  ?initial:Qls_layout.Mapping.t ->
  Qls_arch.Device.t ->
  Qls_circuit.Circuit.t ->
  int
(** Convenience: the SWAP count of a verified run. *)
