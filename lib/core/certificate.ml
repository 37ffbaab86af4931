module Graph = Qls_graph.Graph
module Vf2 = Qls_graph.Vf2
module Circuit = Qls_circuit.Circuit
module Dag = Qls_circuit.Dag
module Device = Qls_arch.Device
module Verifier = Qls_layout.Verifier

type failure =
  | Section_embeddable of int
  | Dependency_broken of { section : int; gate : int }
  | Sections_parallel of { earlier : int; later : int }
  | Designed_invalid of string
  | Wrong_swap_count of { designed : int; claimed : int }

let pp_failure ppf = function
  | Section_embeddable i ->
      Format.fprintf ppf
        "section %d: interaction graph embeds into the device (Lemma 1 fails)" i
  | Dependency_broken { section; gate } ->
      Format.fprintf ppf
        "section %d: gate %d not serialised with its special gates (Lemma 2 fails)"
        section gate
  | Sections_parallel { earlier; later } ->
      Format.fprintf ppf
        "sections %d and %d can execute in parallel (Lemma 3 fails)" earlier later
  | Designed_invalid msg ->
      Format.fprintf ppf "designed schedule invalid: %s" msg
  | Wrong_swap_count { designed; claimed } ->
      Format.fprintf ppf "designed schedule uses %d swaps but %d are claimed"
        designed claimed

(* Strip isolated vertices from an interaction graph so VF2 only matches
   the structurally constrained part (isolated program qubits can always
   be placed). *)
let edge_bearing_subgraph g =
  let keep =
    List.filter (fun v -> Graph.degree g v > 0)
      (List.init (Graph.n_vertices g) Fun.id)
  in
  let sub, _ = Graph.induced g keep in
  sub

let check_structural bench =
  let failures = ref [] in
  let add f = failures := f :: !failures in
  let device = bench.Benchmark.device in
  (* Lemma 1: each section's interaction graph must NOT embed. *)
  List.iter
    (fun s ->
      let pattern = edge_bearing_subgraph s.Benchmark.interaction in
      (* A pattern with more vertices than the device is trivially
         non-embeddable. *)
      let embeddable =
        Graph.n_vertices pattern <= Graph.n_vertices (Device.graph device)
        && Vf2.exists ~pattern ~target:(Device.graph device) ()
      in
      if embeddable then add (Section_embeddable s.Benchmark.index))
    bench.Benchmark.sections;
  (* Lemmas 2 and 3 via DAG reachability on the full circuit. *)
  let dag = Dag.of_circuit bench.Benchmark.circuit in
  (* Map circuit index -> DAG vertex. *)
  let vertex_of_ci = Hashtbl.create 64 in
  for v = 0 to Dag.n_gates dag - 1 do
    Hashtbl.add vertex_of_ci (Dag.circuit_index dag v) v
  done;
  let dagv ci =
    match Hashtbl.find_opt vertex_of_ci ci with
    | Some v -> v
    | None -> invalid_arg "Certificate: backbone index is not a two-qubit gate"
  in
  let sections = Array.of_list bench.Benchmark.sections in
  Array.iteri
    (fun i s ->
      let special = dagv s.Benchmark.special_circuit_index in
      let prev_special =
        if i = 0 then None
        else Some (dagv sections.(i - 1).Benchmark.special_circuit_index)
      in
      List.iter
        (fun ci ->
          let v = dagv ci in
          let after_prev =
            match prev_special with
            | None -> true
            | Some pv -> Dag.reachable dag pv v
          in
          let before_special = Dag.reachable dag v special in
          if not (after_prev && before_special) then
            add (Dependency_broken { section = s.Benchmark.index; gate = ci }))
        s.Benchmark.backbone_circuit_indices)
    sections;
  (* Lemma 3: full serialisation between consecutive sections. *)
  Array.iteri
    (fun i s ->
      if i + 1 < Array.length sections then begin
        let next = sections.(i + 1) in
        let xs = List.map dagv s.Benchmark.backbone_circuit_indices in
        let ys = List.map dagv next.Benchmark.backbone_circuit_indices in
        if not (Dag.serialized dag xs ys) then
          add
            (Sections_parallel
               { earlier = s.Benchmark.index; later = next.Benchmark.index })
      end)
    sections;
  (* Upper bound: the designed schedule. *)
  (match Verifier.check bench.Benchmark.designed with
  | Error vs ->
      add
        (Designed_invalid
           (Format.asprintf "%a" (Format.pp_print_list Verifier.pp_violation) vs))
  | Ok report ->
      if report.Verifier.swap_count <> bench.Benchmark.optimal_swaps then
        add
          (Wrong_swap_count
             {
               designed = report.Verifier.swap_count;
               claimed = bench.Benchmark.optimal_swaps;
             }));
  match List.rev !failures with [] -> Ok () | fs -> Error fs

(* The structural certificate (Lemmas 1–3 + designed-schedule replay) is
   pure graph work; the span separates it from the exact-solver check. *)
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

type exact_result = {
  certified : bool;
  exact_agrees : bool option;
  winner_seed : int option;
}

type exact_method = Sat | Search

(* Budget semantics: [node_budget] bounds the Search solver's nodes and
   [conflict_budget] bounds the SAT solver's conflicts — two different
   units, so they are separate parameters and neither is rescaled into the
   other. *)
let check_exact ?(solver = Sat) ?node_budget ?conflict_budget ?portfolio_seeds
    bench =
  let certified = Result.is_ok (check bench) in
  let swaps = bench.Benchmark.optimal_swaps - 1 in
  let device = bench.Benchmark.device in
  let circuit = bench.Benchmark.circuit in
  let sat_agrees = function
    | Qls_router.Olsq.Infeasible -> Some true
    | Qls_router.Olsq.Feasible _ -> Some false
    | Qls_router.Olsq.Unknown -> None
  in
  let exact_agrees, winner_seed =
    if bench.Benchmark.optimal_swaps = 0 then (Some true, None)
    else
      Qls_obs.with_span ~site:"certify" "certify.exact"
        ~attrs:(fun () ->
          [
            ( "method",
              Qls_obs.Str (match solver with Sat -> "sat" | Search -> "search")
            );
            ("swaps", Qls_obs.Int swaps);
            ( "portfolio",
              Qls_obs.Int
                (match portfolio_seeds with
                | Some seeds -> List.length seeds
                | None -> 0) );
          ])
        (fun () ->
          match solver with
          | Sat -> (
              match portfolio_seeds with
              | Some seeds ->
                  let r =
                    Qls_router.Olsq.race_check ~seeds ?conflict_budget ~swaps
                      device circuit
                  in
                  (sat_agrees r.Qls_router.Olsq.value, Some r.winner_seed)
              | None ->
                  ( sat_agrees
                      (Qls_router.Olsq.check ?conflict_budget ~swaps device
                         circuit),
                    None ))
          | Search -> (
              match
                Qls_router.Exact.check ?node_budget ~swaps device circuit
              with
              | Qls_router.Exact.Infeasible -> (Some true, None)
              | Qls_router.Exact.Feasible _ -> (Some false, None)
              | Qls_router.Exact.Unknown -> (None, None)))
  in
  { certified; exact_agrees; winner_seed }
