(* SAT certification bench: the instrument behind the incremental-solver
   claim.

   For each deterministic QUBIKOS instance (fixed seed, small device,
   saturation-capped so the §IV-A exact regime applies) the bench runs
   the OLSQ k-walk twice and counts CDCL conflicts via the
   ["sat.conflicts"] obs counter:

   - fresh:       [Olsq.check] at k = 0, 1, ... — re-encode and
                  re-solve every bound from scratch (the baseline);
   - incremental: [Olsq.minimum_swaps] — one encoding at the maximum
                  bound, each k decided under assumptions, learned
                  clauses carried across bounds.

   Conflict counts are bit-deterministic (no timing feedback anywhere in
   the solver), so they regression-gate exactly like the router bench's
   structural counters. Wall-clock times are recorded for the record but
   never gated.

   A run writes BENCH_sat.fresh.json; [--full --update] regenerates
   the committed BENCH_sat.json.

   [--check BASELINE] enforces, on the fresh run:
   - correctness: both walks return the instance's designed optimum —
     QUBIKOS knows the answer;
   - the headline gate: total fresh conflicts >= 2x total incremental
     conflicts across the suite;
   - no per-instance regression: neither the fresh nor the incremental
     conflict count may exceed its baseline entry at all (the counts
     are deterministic, so any increase is a search change), and every
     run entry must have a baseline entry. *)

module Kit = Bench_kit
module Device = Qls_arch.Device
module Topologies = Qls_arch.Topologies
module Generator = Qubikos.Generator
module Benchmark = Qubikos.Benchmark
module Olsq = Qls_router.Olsq

type spec = {
  dev : string;  (** topology key, resolved by [device_of] *)
  s_n_swaps : int;
  s_gate_budget : int;
  s_cap : int;
  s_seed : int;
}

type entry = {
  device : string;
  n_swaps : int;
  gate_budget : int;
  seed : int;
  gates : int;
  optimum : int;
  fresh_conflicts : int;
  incr_conflicts : int;
  incr_solves : int;
  fresh_ms : float;
  incr_ms : float;
}

let device_of = function
  | "grid3x3" -> Topologies.grid 3 3
  | "line6" -> Topologies.line 6
  | "ring8" -> Topologies.ring 8
  | d -> invalid_arg ("sat_bench: unknown device " ^ d)

let spec ?(gate_budget = 0) ?(cap = 1) dev s_n_swaps s_seed =
  { dev; s_n_swaps; s_gate_budget = gate_budget; s_cap = cap; s_seed }

(* The suite. Small devices and capped saturation keep each encoding in
   the exact-verification regime; seeds are fixed so the conflict
   numbers are reproducible bit-for-bit. *)
let quick_specs =
  [
    spec "grid3x3" 2 3;
    spec "grid3x3" 2 5;
    spec "grid3x3" 2 7;
    spec "grid3x3" 3 5;
    spec "line6" 3 9;
    spec "ring8" 2 3;
  ]

(* Full adds deeper walks, filler-padded circuits and more seeds; quick
   is a strict subset so a quick CI run checks against the committed
   full baseline. *)
let full_specs =
  quick_specs
  @ [
      spec "grid3x3" 2 1;
      spec "grid3x3" 2 13;
      spec ~gate_budget:10 "grid3x3" 2 6;
      spec "grid3x3" 3 1;
      spec "grid3x3" 3 17;
      spec "line6" 2 5;
      spec "line6" 3 3;
      spec "line6" 3 7;
      spec "ring8" 3 8;
    ]

let specs = function Kit.Quick | Default -> quick_specs | Full -> full_specs

let conflicts_counter = Qls_obs.counter "sat.conflicts"
let solves_counter = Qls_obs.counter "sat.solves"

let timed_ms f =
  let r, seconds = Kit.timed f in
  (r, seconds *. 1e3)

(* Run a walk, returning (its optimum, conflict delta, solve delta, ms).
   Counting by obs-counter delta works for both walks because every
   [Solver.solve] call adds its per-call conflicts and one solve on
   return. *)
let measure_walk walk =
  let c0 = Qls_obs.counter_value conflicts_counter in
  let s0 = Qls_obs.counter_value solves_counter in
  let swaps, ms = timed_ms walk in
  ( swaps,
    Qls_obs.counter_value conflicts_counter - c0,
    Qls_obs.counter_value solves_counter - s0,
    ms )

let exhausted () = failwith "sat_bench: walk exhausted its budget"

(* The fresh baseline: a new encoding and solver for each bound. *)
let fresh_walk ~max_swaps device circuit () =
  let rec walk k =
    if k > max_swaps then exhausted ()
    else
      match Olsq.check ~swaps:k device circuit with
      | Olsq.Feasible witness -> Qls_layout.Transpiled.swap_count witness
      | Olsq.Infeasible -> walk (k + 1)
      | Olsq.Unknown -> exhausted ()
  in
  walk 0

let incremental_walk ~max_swaps device circuit () =
  match Olsq.minimum_swaps ~max_swaps device circuit with
  | Olsq.Optimal { swaps; _ } -> swaps
  | Olsq.Unknown_above _ -> exhausted ()

let measure s =
  let device = device_of s.dev in
  let config =
    {
      Generator.default_config with
      n_swaps = s.s_n_swaps;
      gate_budget = s.s_gate_budget;
      saturation_cap = s.s_cap;
      seed = s.s_seed;
    }
  in
  let b = Generator.generate ~config device in
  let circuit = b.Benchmark.circuit in
  let max_swaps = b.Benchmark.optimal_swaps + 1 in
  let fail fmt = Printf.ksprintf failwith fmt in
  let fresh_opt, fresh_conflicts, _, fresh_ms =
    measure_walk (fresh_walk ~max_swaps device circuit)
  in
  let incr_opt, incr_conflicts, incr_solves, incr_ms =
    measure_walk (incremental_walk ~max_swaps device circuit)
  in
  let designed = b.Benchmark.optimal_swaps in
  if fresh_opt <> designed then
    fail "%s/s%d: fresh walk found %d SWAPs, designed optimum is %d" s.dev
      s.s_seed fresh_opt designed;
  if incr_opt <> designed then
    fail "%s/s%d: incremental walk found %d SWAPs, designed optimum is %d"
      s.dev s.s_seed incr_opt designed;
  {
    device = Device.name device;
    n_swaps = s.s_n_swaps;
    gate_budget = s.s_gate_budget;
    seed = s.s_seed;
    gates = Array.length (Qls_circuit.Circuit.gates circuit);
    optimum = fresh_opt;
    fresh_conflicts;
    incr_conflicts;
    incr_solves;
    fresh_ms;
    incr_ms;
  }

let run scale =
  List.map
    (fun s ->
      let e = measure s in
      Printf.eprintf
        "  %-8s swaps=%d seed=%-3d %5d vs %5d conflicts (%4.1fx)  fresh \
         %6.1fms  incr %6.1fms\n\
         %!"
        e.device e.n_swaps e.seed e.fresh_conflicts e.incr_conflicts
        (float_of_int e.fresh_conflicts
        /. float_of_int (max 1 e.incr_conflicts))
        e.fresh_ms e.incr_ms;
      e)
    (specs scale)

let to_entry e =
  Kit.
    [
      ("device", String e.device);
      ("n_swaps", Int e.n_swaps);
      ("gate_budget", Int e.gate_budget);
      ("seed", Int e.seed);
      ("gates", Int e.gates);
      ("optimum", Int e.optimum);
      ("fresh_conflicts", Int e.fresh_conflicts);
      ("incr_conflicts", Int e.incr_conflicts);
      ("incr_solves", Int e.incr_solves);
      ("fresh_ms", Float (1, e.fresh_ms));
      ("incr_ms", Float (1, e.incr_ms));
    ]

let of_entry f =
  {
    device = Kit.string f "device";
    n_swaps = Kit.int f "n_swaps";
    gate_budget = Kit.int f "gate_budget";
    seed = Kit.int f "seed";
    gates = Kit.int f "gates";
    optimum = Kit.int f "optimum";
    fresh_conflicts = Kit.int f "fresh_conflicts";
    incr_conflicts = Kit.int f "incr_conflicts";
    incr_solves = Kit.int f "incr_solves";
    fresh_ms = Kit.float f "fresh_ms";
    incr_ms = Kit.float f "incr_ms";
  }

let key e =
  Printf.sprintf "%s/swaps=%d/%dg/seed=%d" e.device e.n_swaps e.gate_budget
    e.seed

let total f entries = List.fold_left (fun a e -> a + f e) 0 entries

let ratio entries =
  float_of_int (total (fun e -> e.fresh_conflicts) entries)
  /. float_of_int (max 1 (total (fun e -> e.incr_conflicts) entries))

let check entries baseline =
  let g = Kit.gate ~baseline in
  List.iter
    (fun e -> Kit.exact g (key e) "optimum" ~expected:e.n_swaps e.optimum)
    entries;
  let pairs = Kit.pair g ~key ~base:(Kit.load baseline of_entry) entries in
  List.iter
    (fun (e, b) ->
      let no_rise name now was =
        Kit.no_rise g (key e) name ~base:(float_of_int was) (float_of_int now)
      in
      no_rise "fresh_conflicts" e.fresh_conflicts b.fresh_conflicts;
      no_rise "incr_conflicts" e.incr_conflicts b.incr_conflicts)
    pairs;
  if ratio entries < 2.0 then
    Kit.fail g "headline gate: fresh/incremental conflict ratio %.2f < 2.0"
      (ratio entries);
  Kit.problems g

let () =
  let cli = Kit.cli ~bench:"sat" ~default:Quick () in
  Printf.eprintf "sat_bench: scale %s\n%!" (Kit.string_of_scale cli.scale);
  let entries = run cli.scale in
  Printf.eprintf "sat_bench: fresh/incremental conflict ratio %.2fx\n%!"
    (ratio entries);
  Kit.finish ~bench:"sat" cli (List.map to_entry entries) (check entries)
