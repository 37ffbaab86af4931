(* Quickstart: generate a benchmark with a known optimal SWAP count,
   re-prove the optimum, route it with a tool, and measure the gap.

   Run with:  dune exec examples/quickstart.exe *)

module Benchmark = Qubikos.Benchmark
module Generator = Qubikos.Generator
module Certificate = Qubikos.Certificate
module Topologies = Qls_arch.Topologies
module Qasm = Qls_circuit.Qasm
module Circuit = Qls_circuit.Circuit
module Router = Qls_router.Router
module Registry = Qls_router.Registry

let () =
  (* 1. Pick a device. Every architecture from the paper is built in;
        parametric lines / rings / grids / heavy-hex lattices too. *)
  let device = Topologies.aspen4 () in
  Format.printf "device: %a@." Qls_arch.Device.pp device;

  (* 2. Generate a QUBIKOS instance: 300 two-qubit gates whose optimal
        SWAP count on this device is exactly 5 — by construction. *)
  let bench =
    Generator.generate
      ~config:
        { Generator.default_config with n_swaps = 5; gate_budget = 300; seed = 4 }
      device
  in
  Format.printf "%a@." Benchmark.pp_summary bench;

  (* 3. Don't trust the generator — re-prove the optimum. The certificate
        re-checks the paper's Lemmas 1-3 on the circuit's gates (the degree
        pigeonhole for every section, a dependency chain through the
        special gates) and validates the designed schedule. *)
  Certificate.check_exn bench;
  Format.printf "optimality certificate: OK@.";

  (* 4. Route it with a real tool and compare against the known optimum.
        Every router's output is re-verified gate by gate. *)
  let sabre = Option.get (Registry.by_name ~sabre_trials:10 "sabre") in
  let _, report = Router.run_verified sabre device bench.Benchmark.circuit in
  Format.printf "lightsabre (10 trials): %d swaps for an optimal %d -> gap %.1fx@."
    report.Qls_layout.Verifier.swap_count bench.Benchmark.optimal_swaps
    (float_of_int report.Qls_layout.Verifier.swap_count
    /. float_of_int bench.Benchmark.optimal_swaps);

  (* 5. Interoperate: the instance serialises to OpenQASM 2.0, so any
        external layout tool can consume it. *)
  let path = Filename.temp_file "qubikos" ".qasm" in
  Qasm.write_file path bench.Benchmark.circuit;
  let reread = Qasm.read_file path in
  assert (Circuit.equal reread bench.Benchmark.circuit);
  Format.printf "round-tripped through %s@." path
