module Device = Qls_arch.Device
module Transpiled = Qls_layout.Transpiled

type t = {
  name : string;
  route :
    ?initial:Qls_layout.Mapping.t ->
    Qls_arch.Device.t ->
    Qls_circuit.Circuit.t ->
    Qls_layout.Transpiled.t;
}

let same_device d d' =
  String.equal (Device.name d) (Device.name d')
  && Qls_graph.Graph.equal (Device.graph d) (Device.graph d')

(* The verifier checks a result against its own source circuit and
   device, so a router that answered a different question — routed a
   rewritten circuit, or on another device — would verify clean. Pin both
   to what was asked first. *)
let run_verified r ?initial device circuit =
  let transpiled = r.route ?initial device circuit in
  if not (Qls_circuit.Circuit.equal (Transpiled.source transpiled) circuit) then
    failwith
      (Printf.sprintf "%s: routed a circuit other than the one it was given"
         r.name);
  if not (same_device (Transpiled.device transpiled) device) then
    failwith
      (Printf.sprintf "%s: routed on device %S, not the requested %S" r.name
         (Device.name (Transpiled.device transpiled))
         (Device.name device));
  let report = Qls_layout.Verifier.check_exn transpiled in
  (transpiled, report)

let swap_count r ?initial device circuit =
  let _, report = run_verified r ?initial device circuit in
  report.Qls_layout.Verifier.swap_count
