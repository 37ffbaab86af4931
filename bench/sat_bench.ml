(* SAT certification bench: the instrument behind the incremental-solver
   claim.

   For each deterministic QUBIKOS instance (fixed seed, small device,
   saturation-capped so the §IV-A exact regime applies) the bench runs
   the OLSQ k-walk twice and counts CDCL conflicts via the
   ["sat.conflicts"] obs counter:

   - fresh:       [Olsq.minimum_swaps ~mode:`Fresh] — re-encode and
                  re-solve every bound from scratch (the historical
                  behaviour, kept as the baseline);
   - incremental: [~mode:`Incremental] — one encoding at the maximum
                  bound, each k decided under assumptions, learned
                  clauses carried across bounds.

   Conflict counts are bit-deterministic (no timing feedback anywhere in
   the solver), so they regression-gate exactly like the router bench's
   structural counters. Wall-clock times and the portfolio-race numbers
   (winner seed, workers cancelled) are recorded for the record but
   never gated — which configuration wins a race depends on machine
   timing.

   A plain run writes BENCH_sat.fresh.json and never touches the
   committed baseline; [--out BENCH_sat.json] regenerates it.

   [--check BASELINE] enforces, on the fresh run:
   - correctness: every walk (fresh, incremental, raced) returns the
     instance's designed optimum — QUBIKOS knows the answer;
   - the headline gate: total fresh conflicts >= 2x total incremental
     conflicts across the suite;
   - no per-instance regression: neither the fresh nor the incremental
     conflict count may exceed its baseline entry at all (the counts
     are deterministic, so any increase is a search change), and every
     run entry must have a baseline entry. *)

module Device = Qls_arch.Device
module Topologies = Qls_arch.Topologies
module Generator = Qubikos.Generator
module Benchmark = Qubikos.Benchmark
module Olsq = Qls_router.Olsq

type scale = Quick | Full

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
  race_ms : float;
  winner_seed : int;
  raced : int;
  cancelled : int;
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

let specs = function Quick -> quick_specs | Full -> full_specs

let string_of_scale = function Quick -> "quick" | Full -> "full"

let conflicts_counter = Qls_obs.counter "sat.conflicts"

let timed f =
  (* lint: nondet-source — wall-clock timing metric, never gated *)
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (* lint: nondet-source — wall-clock timing metric, never gated *)
  (r, (Unix.gettimeofday () -. t0) *. 1e3)

(* Walk the bound in [mode], returning (optimum, conflict delta, ms).
   Conflict counting by obs-counter delta works for both modes because
   every [Solver.solve] call adds its per-call conflicts on return. *)
let measure_walk ~mode ~max_swaps device circuit =
  let c0 = Qls_obs.counter_value conflicts_counter in
  let r, ms = timed (fun () -> Olsq.minimum_swaps ~max_swaps ~mode device circuit) in
  let conflicts = Qls_obs.counter_value conflicts_counter - c0 in
  match r with
  | Olsq.Optimal { swaps; _ } -> (swaps, conflicts, ms)
  | Olsq.Unknown_above _ -> failwith "sat_bench: walk exhausted its budget"

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
  let fresh_opt, fresh_conflicts, fresh_ms =
    measure_walk ~mode:`Fresh ~max_swaps device circuit
  in
  (* One throwaway session to read the solve count; the timed
     incremental walk below builds its own. *)
  let sess = Olsq.Incremental.create ~max_swaps device circuit in
  let incr_opt, incr_conflicts, incr_ms =
    measure_walk ~mode:`Incremental ~max_swaps device circuit
  in
  let incr_solves =
    let rec walk k =
      match Olsq.Incremental.check sess ~swaps:k with
      | Olsq.Feasible _ -> Olsq.Incremental.solves sess
      | Olsq.Infeasible -> walk (k + 1)
      | Olsq.Unknown -> fail "sat_bench: session walk exhausted its budget"
    in
    walk 0
  in
  let race, race_ms =
    timed (fun () -> Olsq.race_minimum_swaps ~max_swaps device circuit)
  in
  let race_opt =
    match race.Olsq.value with
    | Olsq.Optimal { swaps; _ } -> swaps
    | Olsq.Unknown_above _ -> fail "sat_bench: raced walk exhausted its budget"
  in
  let designed = b.Benchmark.optimal_swaps in
  if fresh_opt <> designed then
    fail "%s/s%d: fresh walk found %d SWAPs, designed optimum is %d" s.dev
      s.s_seed fresh_opt designed;
  if incr_opt <> designed then
    fail "%s/s%d: incremental walk found %d SWAPs, designed optimum is %d"
      s.dev s.s_seed incr_opt designed;
  if race_opt <> designed then
    fail "%s/s%d: raced walk found %d SWAPs, designed optimum is %d" s.dev
      s.s_seed race_opt designed;
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
    race_ms;
    winner_seed = race.Olsq.winner_seed;
    raced = race.Olsq.raced;
    cancelled = race.Olsq.cancelled;
  }

let run ?(progress = false) ~scale () =
  List.map
    (fun s ->
      let e = measure s in
      if progress then
        Printf.eprintf
          "  %-8s swaps=%d seed=%-3d %5d vs %5d conflicts (%4.1fx)  fresh \
           %6.1fms  incr %6.1fms  race %6.1fms (winner %d)\n\
           %!"
          e.device e.n_swaps e.seed e.fresh_conflicts e.incr_conflicts
          (float_of_int e.fresh_conflicts
          /. float_of_int (max 1 e.incr_conflicts))
          e.fresh_ms e.incr_ms e.race_ms e.winner_seed;
      e)
    (specs scale)

(* JSON in/out follows the router bench convention: one entry object per
   line, fixed key order, read back by the line scanner in
   {!Router_bench_core}. *)

let entry_to_json e =
  Printf.sprintf
    "{\"device\":%S,\"n_swaps\":%d,\"gate_budget\":%d,\"seed\":%d,\"gates\":%d,\"optimum\":%d,\"fresh_conflicts\":%d,\"incr_conflicts\":%d,\"incr_solves\":%d,\"fresh_ms\":%.1f,\"incr_ms\":%.1f,\"race_ms\":%.1f,\"winner_seed\":%d,\"raced\":%d,\"cancelled\":%d}"
    e.device e.n_swaps e.gate_budget e.seed e.gates e.optimum
    e.fresh_conflicts e.incr_conflicts e.incr_solves e.fresh_ms e.incr_ms
    e.race_ms e.winner_seed e.raced e.cancelled

let write_json ~path ~mode entries =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\n  \"schema\": 1,\n  \"bench\": \"sat\",\n";
      output_string oc (Printf.sprintf "  \"mode\": %S,\n" mode);
      output_string oc "  \"entries\": [\n";
      List.iteri
        (fun i e ->
          output_string oc "    ";
          output_string oc (entry_to_json e);
          if i < List.length entries - 1 then output_string oc ",";
          output_string oc "\n")
        entries;
      output_string oc "  ]\n}\n")

let load_entries path =
  let field_s = Router_bench_core.field_string in
  let field_i = Router_bench_core.field_int in
  let field_f = Router_bench_core.field_float in
  let ic = open_in path in
  let entries = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          match
            ( field_s line "device",
              field_i line "n_swaps",
              field_i line "fresh_conflicts",
              field_i line "seed" )
          with
          | Some device, Some n_swaps, Some fresh_conflicts, Some seed ->
              let get_i key = Option.value ~default:0 (field_i line key) in
              let get_f key = Option.value ~default:0.0 (field_f line key) in
              entries :=
                {
                  device;
                  n_swaps;
                  gate_budget = get_i "gate_budget";
                  seed;
                  gates = get_i "gates";
                  optimum = get_i "optimum";
                  fresh_conflicts;
                  incr_conflicts = get_i "incr_conflicts";
                  incr_solves = get_i "incr_solves";
                  fresh_ms = get_f "fresh_ms";
                  incr_ms = get_f "incr_ms";
                  race_ms = get_f "race_ms";
                  winner_seed = get_i "winner_seed";
                  raced = get_i "raced";
                  cancelled = get_i "cancelled";
                }
                :: !entries
          | _ -> ()
        done
      with End_of_file -> ());
  List.rev !entries

let key e = (e.device, e.n_swaps, e.gate_budget, e.seed)

let check ~baseline entries =
  let base = load_entries baseline in
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun e ->
      let id = Printf.sprintf "%s/swaps=%d/seed=%d" e.device e.n_swaps e.seed in
      if e.optimum <> e.n_swaps then
        note "%s: found optimum %d, designed %d" id e.optimum e.n_swaps;
      match List.find_opt (fun b -> key b = key e) base with
      | None ->
          note "%s: no baseline entry in %s (renamed spec or damaged baseline)"
            id baseline
      | Some b ->
          let gate what now was =
            if now > was then
              note
                "%s: %s conflicts %d exceed baseline %d (deterministic — a \
                 code change altered the search)"
                id what now was
          in
          gate "fresh" e.fresh_conflicts b.fresh_conflicts;
          gate "incremental" e.incr_conflicts b.incr_conflicts)
    entries;
  let total f = List.fold_left (fun a e -> a + f e) 0 entries in
  let fresh = total (fun e -> e.fresh_conflicts)
  and incr = total (fun e -> e.incr_conflicts) in
  let ratio = float_of_int fresh /. float_of_int (max 1 incr) in
  if ratio < 2.0 then
    note
      "headline gate: fresh/incremental conflict ratio %.2f < 2.0 (%d vs %d \
       total conflicts)"
      ratio fresh incr;
  match List.rev !problems with
  | [] -> Ok ratio
  | ps -> Error ps

let () =
  let scale = ref Quick in
  let out = ref "BENCH_sat.fresh.json" in
  let baseline = ref None in
  let usage () =
    prerr_endline
      "usage: sat_bench.exe [--quick | --full] [--out FILE] [--check \
       BASELINE]";
    exit 2
  in
  let argv = Sys.argv in
  let value i = if i + 1 < Array.length argv then Some argv.(i + 1) else None in
  let rec parse i =
    if i < Array.length argv then
      match argv.(i) with
      | "--quick" ->
          scale := Quick;
          parse (i + 1)
      | "--full" ->
          scale := Full;
          parse (i + 1)
      | "--out" -> (
          match value i with
          | Some f ->
              out := f;
              parse (i + 2)
          | None -> usage ())
      | "--check" -> (
          match value i with
          | Some f ->
              baseline := Some f;
              parse (i + 2)
          | None -> usage ())
      | _ -> usage ()
  in
  parse 1;
  let mode = string_of_scale !scale in
  Printf.eprintf "sat_bench: scale %s\n%!" mode;
  let entries = run ~progress:true ~scale:!scale () in
  write_json ~path:!out ~mode entries;
  Printf.eprintf "sat_bench: wrote %s (%d entries)\n%!" !out
    (List.length entries);
  match !baseline with
  | None -> ()
  | Some b -> (
      match check ~baseline:b entries with
      | Ok ratio ->
          Printf.eprintf
            "sat_bench: fresh/incremental conflict ratio %.2fx, no \
             regression against %s\n\
             %!"
            ratio b
      | Error problems ->
          List.iter (Printf.eprintf "sat_bench: REGRESSION: %s\n%!") problems;
          exit 1)
