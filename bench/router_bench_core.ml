(* Router hot-path microbenchmark — the perf-trajectory instrument.

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

   [write_json] emits BENCH_router.json; [check] compares a fresh run
   against a committed baseline and fails on >tolerance ns/gate
   regression, on any change of a cell's swaps or rounds, on any
   builds_per_round increase, and on a cell the baseline lacks. *)

module Device = Qls_arch.Device
module Topologies = Qls_arch.Topologies
module Circuit = Qls_circuit.Circuit
module Transpiled = Qls_layout.Transpiled
module Router = Qls_router.Router
module Route_state = Qls_router.Route_state
module Sabre = Qls_router.Sabre
module Tket_router = Qls_router.Tket_router
module Astar_router = Qls_router.Astar_router
module Mlqls = Qls_router.Mlqls
module Generator = Qubikos.Generator

type scale = Quick | Default | Full

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

let scale_of_string = function
  | "quick" -> Some Quick
  | "default" -> Some Default
  | "full" -> Some Full
  | _ -> None

let string_of_scale = function
  | Quick -> "quick"
  | Default -> "default"
  | Full -> "full"

(* The paper's four topologies (Fig. 4a-d). *)
let topologies () =
  [
    Topologies.aspen4 ();
    Topologies.sycamore54 ();
    Topologies.rochester ();
    Topologies.eagle127 ();
  ]

(* Three depths per device: gate budgets proportional to qubit count so
   every architecture is stressed comparably. *)
let depth_factors = function
  | Quick -> [ 1; 2; 4 ]
  | Default | Full -> [ 2; 4; 8 ]

let designed_swaps = function Quick -> 3 | Default -> 5 | Full -> 5

(* Best-of-N timing: quick mode takes 5 runs per cell, because the CI
   smoke gate is 15% and a single run of a tens-of-microseconds cell
   jitters past that on a loaded runner; best-of-N converges on the
   noise floor as N grows. *)
let default_runs = function Quick -> 5 | Default -> 3 | Full -> 5

let instance_seed = 1

let routers scale =
  let sabre_trials = match scale with Full -> 4 | Quick | Default -> 1 in
  [
    ( "sabre",
      Sabre.router
        ~options:(Sabre.with_trials sabre_trials Sabre.default_options)
        () );
    ("mlqls", Mlqls.router ());
    ("tket", Tket_router.router ());
    ("qmap", Astar_router.router ());
  ]

let measure ~runs ~router ~device ~gate_budget ~n_swaps ~seed =
  let config =
    { Generator.default_config with n_swaps; gate_budget; seed }
  in
  let inst = Generator.generate ~config device in
  let circuit = inst.Qubikos.Benchmark.circuit in
  let gates = Array.length (Circuit.gates circuit) in
  (* One instrumented run for the deterministic structural numbers. *)
  Route_state.Debug.reset ();
  let t0 = Unix.gettimeofday () in
  let routed = router.Router.route ?initial:None device circuit in
  let first_elapsed = Unix.gettimeofday () -. t0 in
  let c = Route_state.Debug.counters () in
  let swaps = Transpiled.swap_count routed in
  (* Timing: best of [runs] (the first, instrumented run also counts — a
     counter bump is two atomic adds per round, noise-level). *)
  let best = ref first_elapsed in
  for _ = 2 to runs do
    let t0 = Unix.gettimeofday () in
    ignore (router.Router.route ?initial:None device circuit);
    let e = Unix.gettimeofday () -. t0 in
    if e < !best then best := e
  done;
  let elapsed = Float.max !best 1e-9 in
  (* Routers that pick SWAPs from the candidate set have one
     swap-candidate scan per round; qmap runs its own per-layer A*, so
     its rounds are its remaining-layers builds (one per layer
     iteration). *)
  let rounds =
    if c.Route_state.Debug.swap_candidate_scans > 0 then
      c.Route_state.Debug.swap_candidate_scans
    else c.Route_state.Debug.remaining_layers_builds
  in
  let builds =
    c.Route_state.Debug.extended_set_builds
    + c.Route_state.Debug.remaining_layers_builds
  in
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
    extended_set_builds = c.Route_state.Debug.extended_set_builds;
    remaining_layers_builds = c.Route_state.Debug.remaining_layers_builds;
    builds_per_round =
      (if rounds = 0 then 0.0 else float_of_int builds /. float_of_int rounds);
  }

let run ?(progress = false) ~scale ~runs () =
  let n_swaps = designed_swaps scale in
  List.concat_map
    (fun device ->
      List.concat_map
        (fun factor ->
          let gate_budget = factor * Device.n_qubits device in
          List.map
            (fun (_, router) ->
              let e =
                measure ~runs ~router ~device ~gate_budget ~n_swaps
                  ~seed:instance_seed
              in
              if progress then
                Printf.eprintf
                  "  %-6s %-11s %5d gates  %10.0f ns/gate  %8.0f swaps/s  %.2f builds/round\n%!"
                  e.router e.device e.gates e.ns_per_gate e.swaps_per_sec
                  e.builds_per_round;
              e)
            (routers scale))
        (depth_factors scale))
    (topologies ())

(* ------------------------------------------------------------------ *)
(* JSON emission: entries one per line, keys in a fixed order, so the   *)
(* file diffs cleanly and the reader below stays trivial.               *)
(* ------------------------------------------------------------------ *)

let entry_to_json e =
  Printf.sprintf
    "{\"router\":%S,\"device\":%S,\"gate_budget\":%d,\"n_swaps\":%d,\"seed\":%d,\"gates\":%d,\"runs\":%d,\"ns_per_gate\":%.1f,\"swaps_per_sec\":%.1f,\"swaps\":%d,\"rounds\":%d,\"extended_set_builds\":%d,\"remaining_layers_builds\":%d,\"builds_per_round\":%.4f}"
    e.router e.device e.gate_budget e.n_swaps e.seed e.gates e.runs
    e.ns_per_gate e.swaps_per_sec e.swaps e.rounds e.extended_set_builds
    e.remaining_layers_builds e.builds_per_round

let to_json ~mode entries =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": 1,\n";
  Buffer.add_string buf "  \"bench\": \"router\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"mode\": %S,\n" mode);
  Buffer.add_string buf "  \"entries\": [\n";
  List.iteri
    (fun i e ->
      Buffer.add_string buf "    ";
      Buffer.add_string buf (entry_to_json e);
      if i < List.length entries - 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n')
    entries;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_json ~path ~mode entries =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ~mode entries))

(* ------------------------------------------------------------------ *)
(* Baseline reading. Not a general JSON parser: it reads exactly the    *)
(* format [write_json] emits (one entry object per line, fixed keys).   *)
(* ------------------------------------------------------------------ *)

let scan_field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat and n = String.length line in
  let rec find i =
    if i + plen > n then None
    else if String.sub line i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let stop = ref start in
      while
        !stop < n && (match line.[!stop] with ',' | '}' -> false | _ -> true)
      do
        incr stop
      done;
      Some (String.sub line start (!stop - start))

let field_string line key =
  match scan_field line key with
  | Some s when String.length s >= 2 && s.[0] = '"' ->
      Some (String.sub s 1 (String.length s - 2))
  | _ -> None

let field_float line key = Option.bind (scan_field line key) float_of_string_opt
let field_int line key = Option.bind (scan_field line key) int_of_string_opt

let load_entries path =
  let ic = open_in path in
  let entries = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          match
            ( field_string line "router",
              field_string line "device",
              field_int line "gate_budget",
              field_int line "seed" )
          with
          | Some router, Some device, Some gate_budget, Some seed ->
              let get_f key = Option.value ~default:0.0 (field_float line key) in
              let get_i key = Option.value ~default:0 (field_int line key) in
              entries :=
                {
                  router;
                  device;
                  gate_budget;
                  n_swaps = get_i "n_swaps";
                  seed;
                  gates = get_i "gates";
                  runs = get_i "runs";
                  ns_per_gate = get_f "ns_per_gate";
                  swaps_per_sec = get_f "swaps_per_sec";
                  swaps = get_i "swaps";
                  rounds = get_i "rounds";
                  extended_set_builds = get_i "extended_set_builds";
                  remaining_layers_builds = get_i "remaining_layers_builds";
                  builds_per_round = get_f "builds_per_round";
                }
                :: !entries
          | _ -> ()
        done
      with End_of_file -> ());
  List.rev !entries

let key e = (e.router, e.device, e.gate_budget, e.n_swaps, e.seed)

(* Compare a fresh run against the committed baseline.

   Timing is gated per ROUTER, not per cell: the geometric mean of the
   fresh/baseline ns_per_gate ratio across that router's matched cells
   may not exceed [1 + tolerance]. Individual small cells (tens of µs)
   jitter past 25% routinely on a loaded CI runner; the geomean over a
   dozen cells does not, so this keeps the gate meaningful without
   flaking. The structural numbers are bit-deterministic and gated per
   cell: [swaps] and [rounds] must equal the baseline exactly (a change
   that alters routes fails here, not only in the goldens), and
   builds_per_round may not rise at all. A fresh cell with no baseline
   entry fails too: it would otherwise escape every gate. *)
let check ~baseline ~tolerance entries =
  let base = load_entries baseline in
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let ratios = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match List.find_opt (fun b -> key b = key e) base with
      | None ->
          note "%s/%s/%dg/s%d: no baseline entry (regenerate %s with --update)"
            e.router e.device e.gate_budget e.seed baseline
      | Some b ->
          if b.ns_per_gate > 0.0 then
            Hashtbl.replace ratios e.router
              (log (e.ns_per_gate /. b.ns_per_gate)
              :: (try Hashtbl.find ratios e.router with Not_found -> []));
          if e.swaps <> b.swaps || e.rounds <> b.rounds then
            note
              "%s/%s/%dg: swaps %d, rounds %d differ from the baseline's %d, %d (deterministic — the routed output changed)"
              e.router e.device e.gate_budget e.swaps e.rounds b.swaps b.rounds;
          (* The baseline file stores builds_per_round at 4 decimals, so
             a fresh (exact) value can sit up to half an ulp above the
             recorded one; the smallest genuine regression is one extra
             build over the cell's rounds (>= ~1e-3), far above 1e-4. *)
          if e.builds_per_round > b.builds_per_round +. 1e-4 then
            note
              "%s/%s/%dg: builds_per_round %.4f regressed from %.4f (deterministic — a code change reintroduced per-candidate recomputation)"
              e.router e.device e.gate_budget e.builds_per_round
              b.builds_per_round)
    entries;
  (* Report per-router problems in name order, not hash order. *)
  Hashtbl.fold (fun router logs acc -> (router, logs) :: acc) ratios []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (router, logs) ->
         let n = List.length logs in
         let geomean = exp (List.fold_left ( +. ) 0.0 logs /. float_of_int n) in
         if geomean > 1.0 +. tolerance then
           note
             "%s: ns_per_gate geomean ratio %.3f over %d cells exceeds baseline by more than %.0f%%"
             router geomean n (tolerance *. 100.0));
  match List.rev !problems with [] -> Ok () | ps -> Error ps
