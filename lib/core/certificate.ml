module Graph = Qls_graph.Graph
module Gate = Qls_circuit.Gate
module Circuit = Qls_circuit.Circuit
module Interaction = Qls_circuit.Interaction
module Device = Qls_arch.Device
module Transpiled = Qls_layout.Transpiled
module Verifier = Qls_layout.Verifier

type failure =
  | Section_degrees_fit of int
  | Dependency_broken of { section : int; gate : int }
  | Section_count of { sections : int; claimed : int }
  | Designed_invalid of string
  | Wrong_swap_count of { designed : int; claimed : int }

let pp_failure ppf = function
  | Section_degrees_fit i ->
      Format.fprintf ppf
        "section %d: its degree sequence fits under the device's, so Lemma 1 \
         is not proved"
        i
  | Dependency_broken { section; gate } ->
      Format.fprintf ppf
        "section %d: gate %d not serialised with its special gates (Lemma 2 fails)"
        section gate
  | Section_count { sections; claimed } ->
      Format.fprintf ppf
        "%d sections prove a lower bound of %d SWAPs but %d are claimed"
        sections sections claimed
  | Designed_invalid msg ->
      Format.fprintf ppf "designed schedule invalid: %s" msg
  | Wrong_swap_count { designed; claimed } ->
      Format.fprintf ppf "designed schedule uses %d swaps but %d are claimed"
        designed claimed

(* The operands of the two-qubit gate at circuit position [ci]. *)
let pair_at circuit ci =
  match
    if ci >= 0 && ci < Circuit.length circuit then Some (Circuit.gate circuit ci)
    else None
  with
  | Some (Gate.G2 { a; b; _ }) -> (a, b)
  | Some (Gate.G1 _) | None ->
      invalid_arg "Certificate: backbone index is not a two-qubit gate"

(* Edge-bearing degrees, descending. *)
let degrees g =
  List.init (Graph.n_vertices g) (Graph.degree g)
  |> List.filter (fun d -> d > 0)
  |> List.sort (fun a b -> Int.compare b a)

(* Lemma 1 by the degree pigeonhole (paper §III-A). A monomorphism sends
   the section's vertices to distinct device vertices of at least their
   degree, so none exists when the section's k-th largest degree exceeds
   the device's k-th largest, or when the device runs out of vertices. *)
(* lint: cancel-poll-coverage — one step per section degree, at most the device's qubit count *)
let rec outranks section device =
  match (section, device) with
  | [], _ -> false
  | _ :: _, [] -> true
  | d :: ds, d' :: ds' -> d > d' || outranks ds ds'

(* One of Lemma 2's sweeps (paper §III-B), from position [from] to
   [until] in steps of [step] (1 or -1). The gate at [from] flags its
   qubits; a two-qubit gate that touches a flagged qubit is reached, flags
   both of its own and is marked. The marked gates are then exactly the
   window's gates with a dependency path from [from] (forward) or to it
   (backward). Flags and marks hold [stamp], so none is ever cleared. *)
let sweep circuit flags marks ~stamp ~from ~step ~until =
  let a, b = pair_at circuit from in
  flags.(a) <- stamp;
  flags.(b) <- stamp;
  let ci = ref from in
  (* lint: cancel-poll-coverage — one pass over the section's gate window *)
  while (until - !ci) * step >= 0 do
    (match Circuit.gate circuit !ci with
    | Gate.G2 { a; b; _ } when flags.(a) = stamp || flags.(b) = stamp ->
        flags.(a) <- stamp;
        flags.(b) <- stamp;
        marks.(!ci) <- stamp
    | Gate.G1 _ | Gate.G2 _ -> ());
    ci := !ci + step
  done

let check_structural bench =
  let failures = ref [] in
  let add f = failures := f :: !failures in
  let circuit = bench.Benchmark.circuit in
  let device_degrees = degrees (Device.graph bench.Benchmark.device) in
  let n_gates = Circuit.length circuit and n_qubits = Circuit.n_qubits circuit in
  let bwd_marks = Array.make n_gates 0 and fwd_marks = Array.make n_gates 0 in
  let bwd_flags = Array.make n_qubits 0 and fwd_flags = Array.make n_qubits 0 in
  let prev_special = ref None in
  List.iteri
    (fun i s ->
      let stamp = i + 1 and special = s.Benchmark.special_circuit_index in
      let backbone = s.Benchmark.backbone_circuit_indices in
      let graph =
        Interaction.of_pairs ~n_qubits (List.map (pair_at circuit) backbone)
      in
      if not (outranks (degrees graph) device_degrees) then
        add (Section_degrees_fit s.Benchmark.index);
      (* Back from special gate i to special gate i-1 (or the circuit's
         start), and forward from special gate i-1 to special gate i. *)
      sweep circuit bwd_flags bwd_marks ~stamp ~from:special ~step:(-1)
        ~until:(Option.value !prev_special ~default:0);
      Option.iter
        (fun prev ->
          sweep circuit fwd_flags fwd_marks ~stamp ~from:prev ~step:1
            ~until:special)
        !prev_special;
      let first = Option.is_none !prev_special in
      List.iter
        (fun ci ->
          if not (bwd_marks.(ci) = stamp && (first || fwd_marks.(ci) = stamp))
          then add (Dependency_broken { section = s.Benchmark.index; gate = ci }))
        backbone;
      prev_special := Some special)
    bench.Benchmark.sections;
  (* Each section needs its own SWAP, so the sections bound the optimum
     from below by their number. *)
  let n_sections = List.length bench.Benchmark.sections in
  if n_sections <> bench.Benchmark.optimal_swaps then
    add
      (Section_count
         { sections = n_sections; claimed = bench.Benchmark.optimal_swaps });
  (* Upper bound: the designed schedule. The verifier checks a schedule
     against its own source circuit and device, so pin both to the
     instance first. *)
  let designed = bench.Benchmark.designed in
  if not (Circuit.equal (Transpiled.source designed) bench.Benchmark.circuit)
  then add (Designed_invalid "it routes another circuit")
  else if
    not (Device.equal (Transpiled.device designed) bench.Benchmark.device)
  then add (Designed_invalid "it routes on another device")
  else begin
    match Verifier.check designed with
    | Error vs ->
        add
          (Designed_invalid
             (Format.asprintf "%a"
                (Format.pp_print_list Verifier.pp_violation)
                vs))
    | Ok report ->
        if report.Verifier.swap_count <> bench.Benchmark.optimal_swaps then
          add
            (Wrong_swap_count
               {
                 designed = report.Verifier.swap_count;
                 claimed = bench.Benchmark.optimal_swaps;
               })
  end;
  match List.rev !failures with [] -> Ok () | fs -> Error fs

(* The structural certificate (Lemmas 1–3 + designed-schedule replay)
   reads the circuit a bounded number of times; the span separates it
   from the exact-solver check. *)
let check bench =
  Qls_obs.with_span ~site:"certify" "certify.structural" (fun () ->
      check_structural bench)

let check_exn bench =
  match check bench with
  | Ok () -> ()
  | Error fs ->
      failwith
        (Format.asprintf "@[<v>certificate failed:@,%a@]"
           (Format.pp_print_list pp_failure)
           fs)

exception Optimality_violated of { tool : string; swaps : int; optimum : int }

let () =
  Printexc.register_printer (function
    | Optimality_violated { tool; swaps; optimum } ->
        Some
          (Printf.sprintf
             "optimality violated: %s routed with %d SWAPs, below the \
              certified optimum %d"
             tool swaps optimum)
    | _ -> None)

let check_routed ~tool ~optimum swaps =
  if swaps < optimum then raise (Optimality_violated { tool; swaps; optimum })

type exact_result = { certified : bool; exact_agrees : bool option }

type exact_method = Sat | Search

(* Budget semantics: [node_budget] bounds the Search solver's nodes and
   [conflict_budget] bounds the SAT solver's conflicts — two different
   units, so they are separate parameters and neither is rescaled into the
   other. *)
let check_exact ?(solver = Sat) ?node_budget ?conflict_budget bench =
  let certified = Result.is_ok (check bench) in
  let swaps = bench.Benchmark.optimal_swaps - 1 in
  let device = bench.Benchmark.device in
  let circuit = bench.Benchmark.circuit in
  let exact_agrees =
    if bench.Benchmark.optimal_swaps = 0 then Some true
    else
      Qls_obs.with_span ~site:"certify" "certify.exact"
        ~attrs:(fun () ->
          [
            ( "method",
              Qls_obs.Str (match solver with Sat -> "sat" | Search -> "search")
            );
            ("swaps", Qls_obs.Int swaps);
          ])
        (fun () ->
          match solver with
          | Sat -> (
              match
                Qls_router.Olsq.check ?conflict_budget ~swaps device circuit
              with
              | Qls_router.Olsq.Infeasible -> Some true
              | Qls_router.Olsq.Feasible _ -> Some false
              | Qls_router.Olsq.Unknown -> None)
          | Search -> (
              match
                Qls_router.Exact.check ?node_budget ~swaps device circuit
              with
              | Qls_router.Exact.Infeasible -> Some true
              | Qls_router.Exact.Feasible _ -> Some false
              | Qls_router.Exact.Unknown -> None))
  in
  { certified; exact_agrees }
