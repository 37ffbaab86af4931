(* Router hot-path microbenchmark — the perf-trajectory instrument.

   Usage:
     dune exec bench/router_bench.exe                   default scale
     dune exec bench/router_bench.exe -- --quick        CI scale
     dune exec bench/router_bench.exe -- --update       refresh the baseline
     dune exec bench/router_bench.exe -- --quick \
       --check BENCH_router.json [--tolerance 0.15]

   Deterministic by construction: fixed seeds, the paper's four
   topologies, QUBIKOS instances at three depths (gate budgets scaled to
   the device), every router from the paper's tool set. Two kinds of
   numbers per (router, device, depth) cell:

   - timing: ns per routed two-qubit gate and SWAPs inserted per second
     (best of [runs] repetitions, so scheduler noise biases down, not up);
   - structure: SWAP count, routing rounds, and the number of
     extended-set / remaining-layers constructions from
     {!Qls_router.Route_state.Debug} — these are bit-deterministic, so a
     regression in them is a code change, never noise. A correctly
     hoisted router builds each lookahead structure at most once per
     round ([builds_per_round <= 1]); the pre-hoisting routers built one
     per candidate (typically 6-20x per round).

   A run writes BENCH_router.fresh.json; --update writes the committed
   BENCH_router.json instead (quick scale unless --full is given). With
   --check it exits 1 on a cell whose swaps or rounds differ from the
   baseline's, on any builds_per_round increase, on a cell the baseline
   lacks, and on a router whose ns/gate geomean ratio exceeds
   1 + tolerance (default 0.25). *)

module Kit = Bench_kit
module Device = Qls_arch.Device
module Topologies = Qls_arch.Topologies
module Circuit = Qls_circuit.Circuit
module Transpiled = Qls_layout.Transpiled
module Router = Qls_router.Router
module Route_state = Qls_router.Route_state
module Sabre = Qls_router.Sabre
module Generator = Qubikos.Generator

type entry = {
  router : string;
  device : string;
  gate_budget : int;
  n_swaps : int;
  seed : int;
  gates : int;  (** two-qubit gates actually generated *)
  runs : int;
  ns_per_gate : float;
  swaps_per_sec : float;
  swaps : int;
  rounds : int;
      (** swap-candidate scans, or remaining-layers builds for routers
          (qmap) that never scan the candidate set *)
  extended_set_builds : int;
  remaining_layers_builds : int;
  builds_per_round : float;
}

(* Three depths per device: gate budgets proportional to qubit count so
   every architecture is stressed comparably. *)
let depth_factors = function
  | Kit.Quick -> [ 1; 2; 4 ]
  | Default | Full -> [ 2; 4; 8 ]

let designed_swaps = function Kit.Quick -> 3 | Default | Full -> 5

(* Best-of-N timing: quick mode takes 5 runs per cell, because the CI
   smoke gate is 15% and a single run of a tens-of-microseconds cell
   jitters past that on a loaded runner; best-of-N converges on the
   noise floor as N grows. *)
let runs = function Kit.Quick | Full -> 5 | Default -> 3

let routers scale =
  let sabre_trials = match scale with Kit.Full -> 4 | Quick | Default -> 1 in
  [
    Sabre.router
      ~options:(Sabre.with_trials sabre_trials Sabre.default_options)
      ();
    Qls_router.Mlqls.router ();
    Qls_router.Tket_router.router ();
    Qls_router.Astar_router.router ();
  ]

let measure ~runs ~router ~device ~gate_budget ~n_swaps =
  let seed = 1 in
  let config = { Generator.default_config with n_swaps; gate_budget; seed } in
  let circuit = (Generator.generate ~config device).Qubikos.Benchmark.circuit in
  let gates = Array.length (Circuit.gates circuit) in
  (* Every run resets and reads the counters; the first run's are kept
     (a counter bump is two atomic adds per round, noise-level). *)
  let (routed, c), best =
    Kit.best_of ~runs (fun () ->
        Route_state.Debug.reset ();
        let routed = router.Router.route ?initial:None device circuit in
        (routed, Route_state.Debug.counters ()))
  in
  let elapsed = Float.max best 1e-9 in
  let swaps = Transpiled.swap_count routed in
  (* Routers that pick SWAPs from the candidate set have one
     swap-candidate scan per round; qmap runs its own per-layer A*, so
     its rounds are its remaining-layers builds (one per layer
     iteration). *)
  let rounds =
    if c.swap_candidate_scans > 0 then c.swap_candidate_scans
    else c.remaining_layers_builds
  in
  let builds = c.extended_set_builds + c.remaining_layers_builds in
  {
    router = router.Router.name;
    device = Device.name device;
    gate_budget;
    n_swaps;
    seed;
    gates;
    runs;
    ns_per_gate = elapsed *. 1e9 /. float_of_int (max 1 gates);
    swaps_per_sec = float_of_int swaps /. elapsed;
    swaps;
    rounds;
    extended_set_builds = c.extended_set_builds;
    remaining_layers_builds = c.remaining_layers_builds;
    builds_per_round =
      (if rounds = 0 then 0.0 else float_of_int builds /. float_of_int rounds);
  }

let run scale =
  let n_swaps = designed_swaps scale and runs = runs scale in
  (* The paper's four topologies (Fig. 4a-d). *)
  List.concat_map
    (fun device ->
      List.concat_map
        (fun factor ->
          let gate_budget = factor * Device.n_qubits device in
          List.map
            (fun router ->
              let e = measure ~runs ~router ~device ~gate_budget ~n_swaps in
              Printf.eprintf
                "  %-6s %-11s %5d gates  %10.0f ns/gate  %8.0f swaps/s  %.2f \
                 builds/round\n\
                 %!"
                e.router e.device e.gates e.ns_per_gate e.swaps_per_sec
                e.builds_per_round;
              e)
            (routers scale))
        (depth_factors scale))
    [
      Topologies.aspen4 ();
      Topologies.sycamore54 ();
      Topologies.rochester ();
      Topologies.eagle127 ();
    ]

let to_entry e =
  Kit.
    [
      ("router", String e.router);
      ("device", String e.device);
      ("gate_budget", Int e.gate_budget);
      ("n_swaps", Int e.n_swaps);
      ("seed", Int e.seed);
      ("gates", Int e.gates);
      ("runs", Int e.runs);
      ("ns_per_gate", Float (1, e.ns_per_gate));
      ("swaps_per_sec", Float (1, e.swaps_per_sec));
      ("swaps", Int e.swaps);
      ("rounds", Int e.rounds);
      ("extended_set_builds", Int e.extended_set_builds);
      ("remaining_layers_builds", Int e.remaining_layers_builds);
      ("builds_per_round", Float (4, e.builds_per_round));
    ]

let of_entry f =
  {
    router = Kit.string f "router";
    device = Kit.string f "device";
    gate_budget = Kit.int f "gate_budget";
    n_swaps = Kit.int f "n_swaps";
    seed = Kit.int f "seed";
    gates = Kit.int f "gates";
    runs = Kit.int f "runs";
    ns_per_gate = Kit.float f "ns_per_gate";
    swaps_per_sec = Kit.float f "swaps_per_sec";
    swaps = Kit.int f "swaps";
    rounds = Kit.int f "rounds";
    extended_set_builds = Kit.int f "extended_set_builds";
    remaining_layers_builds = Kit.int f "remaining_layers_builds";
    builds_per_round = Kit.float f "builds_per_round";
  }

let key e =
  Printf.sprintf "%s/%s/%dg/n%d/s%d" e.router e.device e.gate_budget e.n_swaps
    e.seed

(* Timing is gated per ROUTER, not per cell: the geometric mean of the
   fresh/baseline ns_per_gate ratio across that router's cells. Small
   cells (tens of µs) jitter past 25% routinely on a loaded CI runner;
   the geomean over a dozen cells does not. The structural numbers are
   bit-deterministic and gated per cell: swaps and rounds exactly (a
   change that alters routes fails here, not only in the goldens), and
   builds_per_round may not rise. *)
let check ~tolerance entries baseline =
  let g = Kit.gate ~baseline in
  let pairs = Kit.pair g ~key ~base:(Kit.load baseline of_entry) entries in
  List.iter
    (fun (e, b) ->
      Kit.exact g (key e) "swaps" ~expected:b.swaps e.swaps;
      Kit.exact g (key e) "rounds" ~expected:b.rounds e.rounds;
      (* The baseline stores builds_per_round at 4 decimals, so a fresh
         (exact) value can sit up to half an ulp above it; the smallest
         genuine regression is one extra build over the cell's rounds
         (>= ~1e-3), far above 1e-4. *)
      Kit.no_rise g (key e) ~quantum:1e-4 "builds_per_round"
        ~base:b.builds_per_round e.builds_per_round)
    pairs;
  List.sort_uniq String.compare (List.map (fun (e, _) -> e.router) pairs)
  |> List.iter (fun router ->
         List.filter_map
           (fun (e, b) ->
             if String.equal e.router router then
               Some (e.ns_per_gate, b.ns_per_gate)
             else None)
           pairs
         |> Kit.geomean g router "ns_per_gate" ~tolerance);
  Kit.problems g

let () =
  let tolerance = ref 0.25 in
  let cli =
    Kit.cli ~bench:"router" ~default:Default
      ~extra:
        [
          ( "--tolerance",
            Arg.Set_float tolerance,
            "FRAC ns/gate geomean slack for --check (default 0.25)" );
        ]
      ()
  in
  Printf.eprintf "router_bench: scale %s, %d run(s) per cell\n%!"
    (Kit.string_of_scale cli.scale) (runs cli.scale);
  let entries = run cli.scale in
  Kit.finish ~bench:"router" cli
    (List.map to_entry entries)
    (check ~tolerance:!tolerance entries)
