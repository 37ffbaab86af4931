(* Tests for the qubikos core library: benchmark generation, the
   optimality certificate, QUEKO, and the evaluation harness. *)

module Gate = Qls_circuit.Gate
module Circuit = Qls_circuit.Circuit
module Interaction = Qls_circuit.Interaction
module Topologies = Qls_arch.Topologies
module Device = Qls_arch.Device
module Mapping = Qls_layout.Mapping
module Transpiled = Qls_layout.Transpiled
module Verifier = Qls_layout.Verifier
module Router = Qls_router.Router
module Sabre = Qls_router.Sabre
module Exact = Qls_router.Exact
module Graph = Qls_graph.Graph
module Vf2 = Qls_graph.Vf2
module Dag = Qls_circuit.Dag
module Benchmark = Qubikos.Benchmark
module Generator = Qubikos.Generator
module Certificate = Qubikos.Certificate
module Queko = Qubikos.Queko
module Evaluation = Qubikos.Evaluation

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let test_case name f = Alcotest.test_case name `Quick f

let gen ?(device = Topologies.grid 3 3) ?(n_swaps = 2) ?(gate_budget = 0)
    ?(saturation_cap = max_int) ?(single_qubit_ratio = 0.0) ?(seed = 0) () =
  Generator.generate
    ~config:
      {
        Generator.n_swaps;
        gate_budget;
        single_qubit_ratio;
        saturation_cap;
        seed;
      }
    device

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s
    && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

(* The graph of a section's backbone gates, read off the circuit, with
   isolated vertices stripped so VF2 matches only the constrained part. *)
let backbone_pattern b s =
  let c = b.Benchmark.circuit in
  let g =
    Interaction.of_pairs ~n_qubits:(Circuit.n_qubits c)
      (List.map
         (fun ci -> Gate.pair (Circuit.gate c ci))
         s.Benchmark.backbone_circuit_indices)
  in
  let keep =
    List.filter (fun v -> Graph.degree g v > 0)
      (List.init (Graph.n_vertices g) Fun.id)
  in
  fst (Graph.induced g keep)

let degrees_fit = function
  | Certificate.Section_degrees_fit _ -> true
  | _ -> false

let broken_gates = function
  | Ok () -> []
  | Error fs ->
      List.filter_map
        (function
          | Certificate.Dependency_broken { section; gate } -> Some (section, gate)
          | _ -> None)
        fs

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let generator_tests =
  [
    test_case "designed schedule uses exactly the claimed swaps" (fun () ->
        let b = gen ~n_swaps:3 () in
        check_int "claimed" 3 b.Benchmark.optimal_swaps;
        check_int "designed" 3 (Transpiled.swap_count b.Benchmark.designed));
    test_case "section count equals swap count" (fun () ->
        let b = gen ~n_swaps:4 () in
        check_int "sections" 4 (List.length b.Benchmark.sections));
    test_case "gate budget pads with fillers" (fun () ->
        let b = gen ~n_swaps:1 ~gate_budget:60 () in
        check_int "total" 60 (Benchmark.two_qubit_count b);
        check_bool "has fillers" true (Benchmark.filler_count b > 0));
    test_case "oversized backbone is kept whole" (fun () ->
        let b = gen ~n_swaps:4 ~gate_budget:1 () in
        check_int "no fillers" 0 (Benchmark.filler_count b);
        check_bool "backbone intact" true (Benchmark.two_qubit_count b > 1));
    test_case "single-qubit ratio" (fun () ->
        let b = gen ~n_swaps:1 ~gate_budget:40 ~single_qubit_ratio:0.5 () in
        check_int "about half" 20 (Circuit.single_qubit_count b.Benchmark.circuit));
    test_case "same seed reproduces the instance" (fun () ->
        let a = gen ~n_swaps:2 ~gate_budget:50 ~seed:9 () in
        let b = gen ~n_swaps:2 ~gate_budget:50 ~seed:9 () in
        check_bool "identical circuits" true
          (Circuit.equal a.Benchmark.circuit b.Benchmark.circuit));
    test_case "different seeds differ" (fun () ->
        let a = gen ~n_swaps:2 ~gate_budget:50 ~seed:1 () in
        let b = gen ~n_swaps:2 ~gate_budget:50 ~seed:2 () in
        check_bool "different" false
          (Circuit.equal a.Benchmark.circuit b.Benchmark.circuit));
    test_case "n_swaps < 1 rejected" (fun () ->
        check_bool "raises" true
          (try
             ignore (gen ~n_swaps:0 ());
             false
           with Invalid_argument _ -> true));
    test_case "complete device rejected" (fun () ->
        let k4 =
          Device.create ~name:"k4" (Qls_graph.Generators.complete 4)
        in
        check_bool "raises" true
          (try
             ignore (gen ~device:k4 ());
             false
           with Invalid_argument _ -> true));
    test_case "generate_suite uses consecutive seeds" (fun () ->
        let suite =
          Generator.generate_suite
            ~config:{ Generator.default_config with n_swaps = 1; seed = 5 }
            ~count:3 (Topologies.grid 3 3)
        in
        Alcotest.(check (list int)) "seeds" [ 5; 6; 7 ]
          (List.map (fun b -> b.Benchmark.seed) suite));
    test_case "special gate is last backbone gate of its section" (fun () ->
        let b = gen ~n_swaps:3 ~gate_budget:60 () in
        List.iter
          (fun s ->
            let last =
              List.fold_left max (-1) s.Benchmark.backbone_circuit_indices
            in
            check_int "special last" s.Benchmark.special_circuit_index last)
          b.Benchmark.sections);
    test_case "sections' interaction graphs never embed (Lemma 1)" (fun () ->
        let b = gen ~device:(Topologies.aspen4 ()) ~n_swaps:3 ~seed:13 () in
        List.iter
          (fun s ->
            check_bool "not embeddable" false
              (Vf2.exists ~pattern:(backbone_pattern b s)
                 ~target:(Device.graph b.Benchmark.device) ()))
          b.Benchmark.sections);
    test_case "works on every paper device" (fun () ->
        List.iter
          (fun device ->
            let b = gen ~device ~n_swaps:2 ~gate_budget:0 ~seed:3 () in
            check_int "swaps" 2 (Transpiled.swap_count b.Benchmark.designed))
          (Topologies.all_paper_devices ()));
    test_case "saturation cap keeps circuits small" (fun () ->
        let big = gen ~device:(Topologies.aspen4 ()) ~n_swaps:1 ~saturation_cap:0 ~seed:21 () in
        check_bool "small sections" true (Benchmark.two_qubit_count big <= 20));
    test_case "a paper-size Eagle instance allocates under 2M minor words"
      (fun () ->
        (* Eagle at the paper's 3,000-gate budget (§IV-B), 5 SWAPs. Each
           block shifts int indices to place an op and builds its filler
           pairs once; when every filler was spliced into a list and
           re-read the device's couplers, this instance allocated about
           25M words. The device is built outside the window. *)
        let device = Topologies.eagle127 () in
        let w0 = Gc.minor_words () in
        let b = gen ~device ~n_swaps:5 ~gate_budget:3000 ~seed:1 () in
        let words = Gc.minor_words () -. w0 in
        check_int "gates" 3000 (Benchmark.two_qubit_count b);
        check_bool
          (Printf.sprintf "%.2fM minor words <= 2M" (words /. 1e6))
          true (words <= 2e6));
    test_case "an ambient deadline stops generation within its sections"
      (fun () ->
        (* 20,000 sections on Eagle take seconds to build; the count comes
           from the caller (serve takes it from the wire), so the section
           loop polls. *)
        let token = Qls_cancel.make ~deadline_ms:50 () in
        let t0 = Qls_cancel.now_ms () in
        let expired =
          try
            ignore
              (Qls_cancel.with_token token (fun () ->
                   gen ~device:(Topologies.eagle127 ()) ~n_swaps:20_000 ()));
            false
          with Qls_cancel.Expired _ -> true
        in
        let elapsed = Qls_cancel.now_ms () - t0 in
        check_bool "raised Expired" true expired;
        check_bool
          (Printf.sprintf "raised after %d ms <= 1000" elapsed)
          true (elapsed <= 1000));
  ]

let generator_props =
  [
    (* Completeness: the pigeonhole refutes every section the generator
       builds, and the sweeps chain it through its special gates. *)
    QCheck.Test.make ~name:"random instances pass the full certificate" ~count:60
      QCheck.(quad (int_range 0 9) (int_range 1 4) bool (int_range 0 10_000))
      (fun (shape, n_swaps, capped, seed) ->
        let device =
          match shape with
          | 0 -> Topologies.grid 3 3
          | 1 -> Topologies.line 6
          | 2 -> Topologies.ring 8
          | 3 -> Topologies.aspen4 ()
          | 4 -> Topologies.sycamore54 ()
          | 5 -> Topologies.rochester ()
          | 6 -> Topologies.eagle127 ()
          | 7 -> Topologies.heavy_hex ~distance:3
          | 8 -> Topologies.falcon27 ()
          | _ ->
              Device.create ~name:"random"
                (Qls_graph.Generators.random_connected
                   (Qls_graph.Rng.create seed) ~n:(5 + (seed mod 8))
                   ~extra_edges:(seed mod 5))
        in
        let b =
          gen ~device ~n_swaps ~gate_budget:(20 * n_swaps)
            ~single_qubit_ratio:0.3
            ~saturation_cap:(if capped then 1 else max_int)
            ~seed ()
        in
        Result.is_ok (Certificate.check b));
    QCheck.Test.make ~name:"fillers never reduce the designed swap count"
      ~count:20
      QCheck.(int_range 0 10_000)
      (fun seed ->
        (* instances with and without fillers share the backbone seed; both
           must verify at the same optimal count *)
        let bare = gen ~n_swaps:2 ~gate_budget:0 ~seed () in
        let padded = gen ~n_swaps:2 ~gate_budget:80 ~seed () in
        Transpiled.swap_count bare.Benchmark.designed
        = Transpiled.swap_count padded.Benchmark.designed);
    QCheck.Test.make
      ~name:"instances are byte-identical to the frozen list-splicing generator"
      ~count:60
      QCheck.(
        quad (int_range 0 9) (int_range 1 12)
          (triple (int_range 0 2000) (int_range 0 2) (int_range 0 2))
          (int_range 0 10_000))
      (fun (shape, n_swaps, (gate_budget, ratio, cap), seed) ->
        let device =
          match shape with
          | 0 -> Topologies.grid 3 3
          | 1 -> Topologies.line 6
          | 2 -> Topologies.ring 8
          | 3 -> Topologies.aspen4 ()
          | 4 -> Topologies.sycamore54 ()
          | 5 -> Topologies.rochester ()
          | 6 -> Topologies.eagle127 ()
          | 7 -> Topologies.heavy_hex ~distance:3
          | 8 -> Topologies.falcon27 ()
          | _ -> Topologies.grid 4 6
        in
        let single_qubit_ratio = [| 0.0; 0.3; 1.0 |].(ratio) in
        let saturation_cap = [| 1; 3; max_int |].(cap) in
        let fresh =
          gen ~device ~n_swaps ~gate_budget ~single_qubit_ratio ~saturation_cap
            ~seed ()
        in
        let frozen =
          Generator_oracle.generate
            ~config:
              {
                Generator_oracle.n_swaps;
                gate_budget;
                single_qubit_ratio;
                saturation_cap;
                seed;
              }
            device
        in
        String.equal
          (Qubikos.Serialize.to_string fresh)
          (Qubikos.Serialize.to_string frozen));
    QCheck.Test.make ~name:"backbone indices are sorted, unique and in range"
      ~count:30
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let b = gen ~n_swaps:3 ~gate_budget:70 ~seed () in
        let idx = Benchmark.backbone_indices b in
        let sorted = List.sort_uniq compare idx in
        idx = sorted
        && List.for_all
             (fun i -> i >= 0 && i < Circuit.length b.Benchmark.circuit)
             idx);
  ]

(* ------------------------------------------------------------------ *)
(* Certificate                                                         *)
(* ------------------------------------------------------------------ *)

let certificate_tests =
  [
    test_case "passes on a fresh instance" (fun () ->
        Certificate.check_exn (gen ~n_swaps:3 ~gate_budget:50 ()));
    test_case "detects a wrong claimed swap count" (fun () ->
        let b = gen ~n_swaps:2 () in
        let tampered = { b with Benchmark.optimal_swaps = 3 } in
        match Certificate.check tampered with
        | Ok () -> Alcotest.fail "expected failure"
        | Error fs ->
            check_bool "wrong count" true
              (List.exists
                 (function Certificate.Wrong_swap_count _ -> true | _ -> false)
                 fs));
    test_case "detects an embeddable section graph" (fun () ->
        (* Cut the section to its special gate: one edge embeds anywhere. *)
        let b = gen ~n_swaps:1 () in
        let tampered_sections =
          List.map
            (fun s ->
              {
                s with
                Benchmark.backbone_circuit_indices =
                  [ s.Benchmark.special_circuit_index ];
              })
            b.Benchmark.sections
        in
        match Certificate.check { b with Benchmark.sections = tampered_sections } with
        | Ok () -> Alcotest.fail "expected failure"
        | Error fs -> check_bool "degrees fit" true (List.exists degrees_fit fs));
    test_case "refutes a forged instance from its circuit (Lemma 1)" (fun () ->
        (* One cx on line 3 claims an optimum of 1; the true optimum is 0.
           The designed schedule and the dependency chain are valid, so
           only reading the section's graph off the circuit refutes it. *)
        let device = Topologies.line 3 in
        let circuit = Circuit.create ~n_qubits:3 [ Gate.cx 0 1 ] in
        let initial = Mapping.identity ~n_program:3 ~n_physical:3 in
        let forged =
          {
            Benchmark.device;
            circuit;
            optimal_swaps = 1;
            initial_mapping = initial;
            designed =
              Transpiled.create ~source:circuit ~device ~initial
                [ Transpiled.Gate 0; Transpiled.Swap (1, 2) ];
            sections =
              [
                {
                  Benchmark.index = 1;
                  special_circuit_index = 0;
                  backbone_circuit_indices = [ 0 ];
                };
              ];
            seed = 0;
          }
        in
        check_bool "exactly Lemma 1" true
          (Certificate.check forged = Error [ Certificate.Section_degrees_fit 1 ]));
    test_case "detects a missing section" (fun () ->
        (* Two SWAPs claimed and designed, but one section proves only one. *)
        let b = gen ~n_swaps:2 () in
        let first = List.hd b.Benchmark.sections in
        check_bool "section count" true
          (Certificate.check { b with Benchmark.sections = [ first ] }
          = Error [ Certificate.Section_count { sections = 1; claimed = 2 } ]));
    test_case "rejects an index that names no two-qubit gate" (fun () ->
        let b = gen ~n_swaps:1 ~gate_budget:20 ~single_qubit_ratio:0.5 () in
        let c = b.Benchmark.circuit in
        let one_qubit =
          List.find
            (fun ci -> not (Gate.is_two_qubit (Circuit.gate c ci)))
            (List.init (Circuit.length c) Fun.id)
        in
        List.iter
          (fun ci ->
            let sections =
              List.map
                (fun s ->
                  {
                    s with
                    Benchmark.backbone_circuit_indices =
                      ci :: s.Benchmark.backbone_circuit_indices;
                  })
                b.Benchmark.sections
            in
            check_bool "invalid_arg" true
              (match Certificate.check { b with Benchmark.sections } with
              | _ -> false
              | exception Invalid_argument msg ->
                  String.equal msg
                    "Certificate: backbone index is not a two-qubit gate"))
          [ one_qubit; -1; Circuit.length c ]);
    test_case "detects a broken designed schedule" (fun () ->
        let b = gen ~n_swaps:1 () in
        let designed =
          Transpiled.create
            ~source:b.Benchmark.circuit ~device:b.Benchmark.device
            ~initial:b.Benchmark.initial_mapping
            (List.filter
               (function Transpiled.Swap _ -> false | Transpiled.Gate _ -> true)
               (Transpiled.ops b.Benchmark.designed))
        in
        match Certificate.check { b with Benchmark.designed = designed } with
        | Ok () -> Alcotest.fail "expected failure"
        | Error fs ->
            check_bool "invalid designed" true
              (List.exists
                 (function
                   | Certificate.Designed_invalid _ | Certificate.Wrong_swap_count _ ->
                       true
                   | _ -> false)
                 fs));
    test_case "rejects a designed schedule of another instance" (fun () ->
        (* The verifier checks a schedule against its own source circuit
           and device, so seed 2's schedule verifies clean on its own. *)
        let b = gen ~n_swaps:2 ~gate_budget:24 ~seed:1 () in
        let other = gen ~n_swaps:2 ~gate_budget:24 ~seed:2 () in
        check_bool "another circuit" true
          (Certificate.check
             { b with Benchmark.designed = other.Benchmark.designed }
          = Error [ Certificate.Designed_invalid "it routes another circuit" ]);
        let renamed =
          Device.create ~name:"grid3x3-copy" (Device.graph b.Benchmark.device)
        in
        let designed =
          Transpiled.create ~source:b.Benchmark.circuit ~device:renamed
            ~initial:b.Benchmark.initial_mapping
            (Transpiled.ops b.Benchmark.designed)
        in
        check_bool "another device" true
          (Certificate.check { b with Benchmark.designed }
          = Error
              [ Certificate.Designed_invalid "it routes on another device" ]));
    test_case "detects broken section serialisation" (fun () ->
        (* Two sections that each pass Lemma 1 (a degree-3 star on a line)
           but touch disjoint qubits, so nothing orders section 2 after
           special gate 1. *)
        let device = Topologies.line 8 in
        let circuit =
          Circuit.create ~n_qubits:8
            [
              Gate.cx 0 1; Gate.cx 0 2; Gate.cx 0 3;
              Gate.cx 4 5; Gate.cx 4 6; Gate.cx 4 7;
            ]
        in
        let initial = Mapping.identity ~n_program:8 ~n_physical:8 in
        let section index backbone_circuit_indices =
          {
            Benchmark.index;
            special_circuit_index = List.nth backbone_circuit_indices 2;
            backbone_circuit_indices;
          }
        in
        let fake =
          {
            Benchmark.device;
            circuit;
            optimal_swaps = 2;
            initial_mapping = initial;
            designed = Transpiled.create ~source:circuit ~device ~initial [];
            sections = [ section 1 [ 0; 1; 2 ]; section 2 [ 3; 4; 5 ] ];
            seed = 0;
          }
        in
        let r = Certificate.check fake in
        Alcotest.(check (list (pair int int)))
          "section 2 is not after special gate 1"
          [ (2, 3); (2, 4); (2, 5) ]
          (broken_gates r);
        check_bool "Lemma 1 holds" false
          (match r with Ok () -> false | Error fs -> List.exists degrees_fit fs));
    test_case "check_exact confirms small instances" (fun () ->
        let b = gen ~n_swaps:2 ~saturation_cap:1 ~seed:4 () in
        let r = Certificate.check_exact b in
        check_bool "certified" true r.Certificate.certified;
        check_bool "exact agrees" true (r.Certificate.exact_agrees = Some true));
    test_case "check_exact reports budget exhaustion honestly" (fun () ->
        let b = gen ~n_swaps:2 ~seed:4 () in
        (* each method is starved through its own budget, in its own unit:
           conflicts for Sat, search-tree nodes for Search *)
        let r = Certificate.check_exact ~conflict_budget:0 b in
        check_bool "sat unknown" true (r.Certificate.exact_agrees = None);
        let r =
          Certificate.check_exact ~solver:Certificate.Search ~node_budget:1 b
        in
        check_bool "search unknown" true (r.Certificate.exact_agrees = None));
    test_case "check_exact sat path ignores node_budget" (fun () ->
        (* regression: node_budget used to be passed through as the SAT
           conflict budget, silently rescaling it *)
        let b = gen ~n_swaps:2 ~saturation_cap:1 ~seed:4 () in
        let r = Certificate.check_exact ~node_budget:1 b in
        check_bool "still confirmed" true
          (r.Certificate.exact_agrees = Some true));
    test_case "check_exact raises Too_large above the clause limit" (fun () ->
        (* Eagle at 3,000 gates and n = 10: about 45 M clauses. The
           deadline only bounds a guard that fails to fire: the encoder
           polls, and that encoding would take gigabytes. *)
        let device = Topologies.eagle127 () in
        let b = gen ~device ~n_swaps:10 ~gate_budget:3000 ~seed:1 () in
        match
          Qls_cancel.with_token (Qls_cancel.make ~deadline_ms:2000 ())
            (fun () -> Certificate.check_exact b)
        with
        | exception Qls_router.Olsq.Too_large { clauses; limit } ->
            check_int "the closed-form count"
              (Qls_router.Olsq.clause_count ~session:false device
                 b.Benchmark.circuit ~k:9)
              clauses;
            check_int "limit" Qls_router.Olsq.clause_limit limit
        | _ -> Alcotest.fail "not refused");
    test_case "pp_failure output is non-empty for all cases" (fun () ->
        List.iter
          (fun f ->
            check_bool "non-empty" true
              (String.length (Format.asprintf "%a" Certificate.pp_failure f) > 0))
          [
            Certificate.Section_degrees_fit 1;
            Certificate.Dependency_broken { section = 1; gate = 2 };
            Certificate.Section_count { sections = 1; claimed = 2 };
            Certificate.Designed_invalid "x";
            Certificate.Wrong_swap_count { designed = 1; claimed = 2 };
          ]);
  ]

(* Test-local oracle for Lemma 2: the (section, gate) pairs of backbone
   gates without a DAG path from the previous special gate or to their
   own, by BFS over [Dag.successors] and [Dag.predecessors]. *)
let dag_broken b =
  let dag = Dag.of_circuit b.Benchmark.circuit in
  let vertex = Hashtbl.create 64 in
  for v = 0 to Dag.n_gates dag - 1 do
    Hashtbl.replace vertex (Dag.circuit_index dag v) v
  done;
  let reach next ci =
    let seen = Array.make (Dag.n_gates dag) false in
    let queue = Queue.create () in
    Queue.add (Hashtbl.find vertex ci) queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      if not seen.(v) then begin
        seen.(v) <- true;
        List.iter (fun w -> Queue.add w queue) (next dag v)
      end
    done;
    fun ci -> seen.(Hashtbl.find vertex ci)
  in
  let _, broken =
    List.fold_left
      (fun (prev, acc) s ->
        let to_special = reach Dag.predecessors s.Benchmark.special_circuit_index in
        let from_prev =
          match prev with
          | None -> fun _ -> true
          | Some p -> reach Dag.successors p
        in
        ( Some s.Benchmark.special_circuit_index,
          List.rev_append
            (List.filter_map
               (fun ci ->
                 if to_special ci && from_prev ci then None
                 else Some (s.Benchmark.index, ci))
               s.Benchmark.backbone_circuit_indices)
            acc ))
      (None, []) b.Benchmark.sections
  in
  List.rev broken

let certificate_props =
  [
    (* Soundness: the pigeonhole only refutes sections VF2 cannot embed. *)
    QCheck.Test.make ~name:"a section the pigeonhole refutes has no VF2 embedding"
      ~count:300
      QCheck.(triple (int_range 0 3) (int_range 2 9) (int_range 0 100_000))
      (fun (shape, n, seed) ->
        let device =
          match shape with
          | 0 -> Topologies.grid 3 3
          | 1 -> Topologies.line 6
          | 2 -> Topologies.ring 8
          | _ -> Topologies.aspen4 ()
        in
        let n = min n (Device.n_qubits device) in
        let rng = Qls_graph.Rng.create seed in
        let p = 0.2 +. (0.1 *. float_of_int (seed mod 5)) in
        let g = Qls_graph.Generators.gnp rng ~n ~p in
        let gates = List.map (fun (u, v) -> Gate.cx u v) (Graph.edges g) in
        let m = List.length gates in
        QCheck.assume (m > 0);
        let n_phys = Device.n_qubits device in
        let circuit = Circuit.create ~n_qubits:n_phys gates in
        let initial = Mapping.identity ~n_program:n_phys ~n_physical:n_phys in
        let section =
          {
            Benchmark.index = 1;
            special_circuit_index = m - 1;
            backbone_circuit_indices = List.init m Fun.id;
          }
        in
        let bench =
          {
            Benchmark.device;
            circuit;
            optimal_swaps = 1;
            initial_mapping = initial;
            designed = Transpiled.create ~source:circuit ~device ~initial [];
            sections = [ section ];
            seed;
          }
        in
        let refuted =
          match Certificate.check bench with
          | Ok () -> true
          | Error fs -> not (List.exists degrees_fit fs)
        in
        (not refuted)
        || not
             (Vf2.exists ~pattern:(backbone_pattern bench section)
                ~target:(Device.graph device) ()));
    (* Lemma 2's sweeps against DAG reachability, after pointing one
       backbone index at a random two-qubit gate. *)
    QCheck.Test.make ~name:"Lemma 2's sweeps agree with DAG reachability"
      ~count:80
      QCheck.(
        quad (int_range 1 3) (int_range 0 10_000) (int_range 0 999)
          (int_range 0 9_999))
      (fun (n_swaps, seed, slot, target) ->
        let device =
          match seed mod 3 with
          | 0 -> Topologies.grid 3 3
          | 1 -> Topologies.aspen4 ()
          | _ -> Topologies.ring 8
        in
        let b =
          gen ~device ~n_swaps ~gate_budget:(20 * n_swaps)
            ~single_qubit_ratio:0.3 ~seed ()
        in
        let c = b.Benchmark.circuit in
        let two_qubit =
          List.filter
            (fun ci -> Gate.is_two_qubit (Circuit.gate c ci))
            (List.init (Circuit.length c) Fun.id)
        in
        let replacement = List.nth two_qubit (target mod List.length two_qubit) in
        let section = slot mod n_swaps in
        let sections =
          List.mapi
            (fun i s ->
              if i <> section then s
              else
                let bb = s.Benchmark.backbone_circuit_indices in
                let j = slot mod List.length bb in
                {
                  s with
                  Benchmark.backbone_circuit_indices =
                    List.mapi (fun k ci -> if k = j then replacement else ci) bb;
                })
            b.Benchmark.sections
        in
        let b' = { b with Benchmark.sections } in
        broken_gates (Certificate.check b') = dag_broken b');
  ]

(* ------------------------------------------------------------------ *)
(* Queko                                                               *)
(* ------------------------------------------------------------------ *)

let queko_tests =
  [
    test_case "instances are swap-free" (fun () ->
        for seed = 0 to 4 do
          let q = Queko.generate ~seed ~depth:8 (Topologies.grid 3 3) in
          check_bool "swap-free" true (Queko.verify_swap_free q)
        done);
    test_case "designed depth is exact" (fun () ->
        let q = Queko.generate ~seed:1 ~depth:12 (Topologies.aspen4 ()) in
        check_int "depth" 12 (Circuit.two_qubit_depth q.Queko.circuit);
        check_int "recorded" 12 q.Queko.optimal_depth);
    test_case "hidden mapping executes the circuit in place" (fun () ->
        let q = Queko.generate ~seed:2 ~depth:6 (Topologies.grid 3 3) in
        let device = q.Queko.device in
        List.iter
          (fun (a, b) ->
            check_bool "coupled" true
              (Device.coupled device
                 (Mapping.phys q.Queko.hidden_mapping a)
                 (Mapping.phys q.Queko.hidden_mapping b)))
          (Circuit.two_qubit_pairs q.Queko.circuit));
    test_case "vf2 placement solves QUEKO outright (the paper's point)" (fun () ->
        let q = Queko.generate ~seed:3 ~depth:10 (Topologies.grid 3 3) in
        match Qls_router.Placement.vf2 q.Queko.device q.Queko.circuit with
        | None -> Alcotest.fail "QUEKO must be solvable by isomorphism"
        | Some m ->
            check_int "zero spread" 0
              (Qls_router.Placement.spread_cost q.Queko.device q.Queko.circuit m));
    test_case "suites have the advertised depths and are swap-free" (fun () ->
        let device = Topologies.grid 3 3 in
        let suite = Queko.generate_suite ~seed:4 Queko.Tfl device in
        Alcotest.(check (list int)) "depths" (Queko.suite_depths Queko.Tfl)
          (List.map (fun q -> q.Queko.optimal_depth) suite);
        List.iter
          (fun q ->
            check_int "depth exact" q.Queko.optimal_depth
              (Circuit.two_qubit_depth q.Queko.circuit))
          suite);
    test_case "depth_ratio is 1.0 for the hidden-mapping execution" (fun () ->
        let device = Topologies.grid 3 3 in
        let q = Queko.generate ~seed:5 ~depth:8 device in
        (* execute in place under the hidden mapping: no swaps *)
        let ops =
          List.init (Circuit.length q.Queko.circuit) (fun i -> Transpiled.Gate i)
        in
        let t =
          Transpiled.create ~source:q.Queko.circuit ~device
            ~initial:q.Queko.hidden_mapping ops
        in
        check_bool "valid" true (Qls_layout.Verifier.is_valid t);
        Alcotest.(check (float 1e-9)) "ratio" 1.0 (Queko.depth_ratio q t));
    test_case "depth_ratio rejects foreign circuits" (fun () ->
        let device = Topologies.grid 3 3 in
        let q = Queko.generate ~seed:6 ~depth:5 device in
        let other = Circuit.create ~n_qubits:9 [ Gate.cx 0 1 ] in
        let t =
          Transpiled.create ~source:other ~device
            ~initial:(Mapping.identity ~n_program:9 ~n_physical:9)
            [ Transpiled.Gate 0 ]
        in
        check_bool "raises" true
          (try
             ignore (Queko.depth_ratio q t);
             false
           with Invalid_argument _ -> true));
    test_case "parameter validation" (fun () ->
        check_bool "depth" true
          (try
             ignore (Queko.generate ~depth:0 (Topologies.line 3));
             false
           with Invalid_argument _ -> true);
        check_bool "density" true
          (try
             ignore (Queko.generate ~density:1.5 ~depth:2 (Topologies.line 3));
             false
           with Invalid_argument _ -> true));
    test_case "QUBIKOS sections defeat per-section VF2 stitching (III-C)" (fun () ->
        (* Solving section 1 by isomorphism and extending it greedily to
           section 2 can fail even though a global optimum exists — the
           paper's argument for why QUBIKOS is hard. We verify the sections
           are at least not independently solvable after the special gate
           breaks the mapping. *)
        let b = gen ~device:(Topologies.aspen4 ()) ~n_swaps:2 ~seed:2 () in
        match b.Benchmark.sections with
        | [ s1; _ ] ->
            check_bool "section 1 not embeddable" false
              (Vf2.exists ~pattern:(backbone_pattern b s1)
                 ~target:(Device.graph b.Benchmark.device) ())
        | _ -> Alcotest.fail "expected two sections");
  ]

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let evaluation_tests =
  [
    test_case "paper gate budgets" (fun () ->
        check_int "aspen" 300 (Evaluation.paper_gate_budget (Topologies.aspen4 ()));
        check_int "sycamore" 1500 (Evaluation.paper_gate_budget (Topologies.sycamore54 ()));
        check_int "rochester" 1500 (Evaluation.paper_gate_budget (Topologies.rochester ()));
        check_int "eagle" 3000 (Evaluation.paper_gate_budget (Topologies.eagle127 ())));
    test_case "run_figure produces sane ratios" (fun () ->
        let device = Topologies.grid 3 3 in
        let config =
          {
            (Evaluation.default_figure_config device) with
            swap_counts = [ 2 ];
            circuits_per_point = 2;
            gate_budget = 40;
            sabre_trials = 2;
          }
        in
        let tools = [ Sabre.router ~options:(Sabre.with_trials 2 Sabre.default_options) () ] in
        let points = Evaluation.run_figure ~tools ~config device in
        check_int "one tool" 1 (List.length points);
        let p = List.hd points in
        check_bool "ratio >= 1" true (p.Evaluation.ratio >= 1.0 -. 1e-9);
        check_int "optimal recorded" 2 p.Evaluation.optimal;
        check_bool "min <= max" true (p.Evaluation.min_swaps <= p.Evaluation.max_swaps));
    test_case "run_figure covers all swap counts" (fun () ->
        let device = Topologies.grid 3 3 in
        let config =
          {
            (Evaluation.default_figure_config device) with
            swap_counts = [ 1; 2 ];
            circuits_per_point = 1;
            gate_budget = 30;
          }
        in
        let tools = [ Sabre.router () ] in
        let points = Evaluation.run_figure ~tools ~config device in
        Alcotest.(check (list int)) "swap counts" [ 1; 2 ]
          (List.map (fun p -> p.Evaluation.optimal) points));
    test_case "tool_gap_summary averages per tool" (fun () ->
        let mk tool ratio =
          {
            Evaluation.device_name = "d";
            tool_name = tool;
            optimal = 1;
            circuits = 1;
            degraded = 0;
            mean_swaps = ratio;
            ratio;
            min_swaps = 0;
            max_swaps = 0;
            mean_seconds = 0.0;
          }
        in
        let summary =
          Evaluation.tool_gap_summary [ mk "a" 2.0; mk "a" 4.0; mk "b" 1.0 ]
        in
        Alcotest.(check (list (pair string (float 1e-9)))) "sorted by gap"
          [ ("b", 1.0); ("a", 3.0) ]
          summary);
    test_case "optimality study on the 3x3 grid" (fun () ->
        let rows =
          Evaluation.run_optimality_study ~circuits_per_count:2
            ~swap_counts:[ 1; 2 ] ~gate_budget:20 (Topologies.grid 3 3)
        in
        check_int "two rows" 2 (List.length rows);
        List.iter
          (fun r ->
            check_int "all certified" r.Evaluation.o_circuits r.Evaluation.o_certified;
            check_int "all exact-confirmed" r.Evaluation.o_circuits
              r.Evaluation.o_exact_confirmed;
            check_int "none refuted" 0 r.Evaluation.o_exact_refuted;
            check_bool "row passes" true
              (Evaluation.optimality_failure r = None))
          rows);
    test_case "an instance too large to encode is exact-unknown" (fun () ->
        (* Eagle at 3,000 gates and n = 10 is above the clause limit; the
           deadline only bounds a guard that fails to fire. *)
        let rows =
          Qls_cancel.with_token (Qls_cancel.make ~deadline_ms:2000 ())
            (fun () ->
              Evaluation.run_optimality_study ~circuits_per_count:1
                ~swap_counts:[ 10 ] ~gate_budget:3000 (Topologies.eagle127 ()))
        in
        match rows with
        | [ r ] ->
            check_int "certified" 1 r.Evaluation.o_certified;
            check_int "exact-unknown" 1 r.Evaluation.o_exact_unknown;
            check_int "confirmed" 0 r.Evaluation.o_exact_confirmed;
            check_int "refuted" 0 r.Evaluation.o_exact_refuted
        | rows -> Alcotest.failf "%d rows" (List.length rows));
    test_case "a refuted or uncertified instance fails its row" (fun () ->
        let row =
          {
            Evaluation.o_device = "grid3x3";
            o_swaps = 2;
            o_circuits = 3;
            o_certified = 3;
            o_exact_confirmed = 2;
            o_exact_refuted = 0;
            o_exact_unknown = 1;
            o_mean_gates = 20.0;
          }
        in
        let failure = Alcotest.(check (option string)) in
        failure "confirmed or inconclusive passes" None
          (Evaluation.optimality_failure row);
        failure "refuted fails"
          (Some
             "grid3x3, 2 swaps: 3 of 3 certified, 1 refuted by the exact solver")
          (Evaluation.optimality_failure
             { row with o_exact_unknown = 0; o_exact_refuted = 1 });
        failure "uncertified fails"
          (Some
             "grid3x3, 2 swaps: 2 of 3 certified, 0 refuted by the exact solver")
          (Evaluation.optimality_failure { row with o_certified = 2 }));
    test_case "the campaign instance cache keeps the 16 most recent"
      (fun () ->
        (* 20 instances, one sabre task each: the cache stays at its bound
           and a re-run of an evicted task rebuilds the same instance. *)
        let device = Topologies.grid 3 3 in
        let config =
          {
            (Evaluation.default_figure_config device) with
            swap_counts = [ 1 ];
            circuits_per_point = 20;
            gate_budget = 20;
            seed = 4242;
          }
        in
        let tasks =
          Evaluation.campaign_tasks ~names:[ "sabre" ] ~config device
        in
        let swaps t = (Evaluation.campaign_exec ~device t).Qls_harness.Task.swaps in
        let first = List.map swaps tasks in
        check_bool "bounded" true (Evaluation.cached_instances () <= 16);
        Alcotest.(check (list int)) "rebuilt instances route the same" first
          (List.map swaps tasks));
    test_case "pp functions produce aligned tables" (fun () ->
        let device = Topologies.grid 3 3 in
        let config =
          {
            (Evaluation.default_figure_config device) with
            swap_counts = [ 1 ];
            circuits_per_point = 1;
            gate_budget = 20;
          }
        in
        let points =
          Evaluation.run_figure ~tools:[ Sabre.router () ] ~config device
        in
        let s = Format.asprintf "@[<v>%a@]" Evaluation.pp_points points in
        check_bool "has header" true (String.length s > 40));
    test_case "run_figure gives the same points on one worker and on two"
      (fun () ->
        let device = Topologies.grid 3 3 in
        let config =
          {
            (Evaluation.default_figure_config device) with
            swap_counts = [ 1; 3 ];
            circuits_per_point = 2;
            gate_budget = 30;
            sabre_trials = 2;
          }
        in
        (* Everything but the wall-clock column. *)
        let run jobs =
          List.map
            (fun p -> { p with Evaluation.mean_seconds = 0.0 })
            (Evaluation.run_figure ~jobs ~config device)
        in
        let sequential = run 1 in
        check_int "four tools, two counts" 8 (List.length sequential);
        check_bool "identical" true (sequential = run 2));
    test_case "run_figure raises when a route fails verification" (fun () ->
        (* A tool named like a registered one that executes every gate in
           place: no QUBIKOS instance routes without a SWAP, so each of its
           results fails verification. *)
        let device = Topologies.grid 3 3 in
        let in_place =
          {
            Router.name = "sabre";
            route =
              (fun ?initial:_ device circuit ->
                let n = Device.n_qubits device in
                Transpiled.create ~source:circuit ~device
                  ~initial:(Mapping.identity ~n_program:n ~n_physical:n)
                  (List.init (Circuit.length circuit) (fun i -> Transpiled.Gate i)));
          }
        in
        let config =
          {
            (Evaluation.default_figure_config device) with
            swap_counts = [ 1 ];
            circuits_per_point = 2;
            gate_budget = 20;
          }
        in
        match Evaluation.run_figure ~tools:[ in_place ] ~config device with
        | _ -> Alcotest.fail "failed routes were aggregated"
        | exception Failure msg ->
            check_bool "names both failed tasks" true
              (contains msg "2 task(s) failed"));
    test_case "default_fallback chains through registered tools to sabre"
      (fun () ->
        List.iter
          (fun name ->
            let rec chain seen name =
              match Evaluation.default_fallback name with
              | None -> List.rev (name :: seen)
              | Some next ->
                  check_bool (name ^ " -> " ^ next ^ " is registered") true
                    (List.mem next Qls_router.Registry.names);
                  check_bool (next ^ " not revisited") false
                    (List.mem next (name :: seen));
                  chain (name :: seen) next
            in
            match List.rev (chain [] name) with
            | last :: _ ->
                Alcotest.(check string) (name ^ " ends at sabre") "sabre" last
            | [] -> Alcotest.fail "empty chain")
          Qls_router.Registry.names);
  ]

let serialize_tests =
  [
    test_case "round trip preserves everything the certificate needs" (fun () ->
        let b = gen ~device:(Topologies.aspen4 ()) ~n_swaps:3 ~gate_budget:80
            ~single_qubit_ratio:0.2 ~seed:6 () in
        let b' = Qubikos.Serialize.of_string (Qubikos.Serialize.to_string b) in
        check_bool "circuit" true (Circuit.equal b.Benchmark.circuit b'.Benchmark.circuit);
        check_int "optimal" b.Benchmark.optimal_swaps b'.Benchmark.optimal_swaps;
        check_int "seed" b.Benchmark.seed b'.Benchmark.seed;
        check_bool "initial mapping" true
          (Mapping.equal b.Benchmark.initial_mapping b'.Benchmark.initial_mapping);
        check_int "sections" (List.length b.Benchmark.sections)
          (List.length b'.Benchmark.sections);
        Certificate.check_exn b');
    test_case "file round trip" (fun () ->
        let b = gen ~n_swaps:2 ~gate_budget:40 ~seed:3 () in
        let path = Filename.temp_file "qubikos" ".qbk" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Qubikos.Serialize.save path b;
            let b' = Qubikos.Serialize.load path in
            check_bool "designed ops equal" true
              (Transpiled.ops b.Benchmark.designed
               = Transpiled.ops b'.Benchmark.designed)));
    test_case "anonymous devices are rejected" (fun () ->
        let device =
          Device.create ~name:"custom" (Qls_graph.Generators.path 5)
        in
        let b = gen ~device ~n_swaps:1 () in
        check_bool "raises" true
          (try
             ignore (Qubikos.Serialize.to_string b);
             false
           with Invalid_argument _ -> true));
    test_case "version and device errors are reported" (fun () ->
        check_bool "bad version" true
          (try
             ignore (Qubikos.Serialize.of_string "QUBIKOS 99\n");
             false
           with Failure _ -> true);
        (match Qubikos.Serialize.of_string "QUBIKOS 1\ndevice grid3x3\n" with
        | _ -> Alcotest.fail "version 1 accepted"
        | exception Failure msg ->
            check_bool "names both versions and the remedy" true
              (contains msg "version 1" && contains msg "version 2"
              && contains msg "generate --save"));
        check_bool "bad device" true
          (try
             ignore (Qubikos.Serialize.of_string "QUBIKOS 2\ndevice nope\n");
             false
           with Failure _ -> true);
        check_bool "garbage" true
          (try
             ignore (Qubikos.Serialize.of_string "hello world\n");
             false
           with Failure _ -> true);
        let repeated_operand l =
          if String.starts_with ~prefix:"cx " l then "cx q[0],q[0];" else l
        in
        let bad_qasm =
          String.split_on_char '\n' (Qubikos.Serialize.to_string (gen ()))
          |> List.map repeated_operand |> String.concat "\n"
        in
        (match Qubikos.Serialize.of_string bad_qasm with
        | _ -> Alcotest.fail "malformed QASM accepted"
        | exception Failure msg ->
            check_bool "QASM errors carry the file's line" true
              (contains msg "Serialize: line "));
        (* An initial position used twice, a SWAP of a qubit with itself
           and a gate index past the circuit are failures of their own
           line (5 and 6), not exceptions of the mapping or verifier. *)
        let edited ~record f =
          String.split_on_char '\n' (Qubikos.Serialize.to_string (gen ()))
          |> List.map (fun l ->
                 if String.starts_with ~prefix:(record ^ " ") l then f l else l)
          |> String.concat "\n"
        in
        let repeat_first l =
          match String.split_on_char ' ' l with
          | k :: p :: _ :: rest -> String.concat " " (k :: p :: p :: rest)
          | _ -> Alcotest.fail "initial record too short"
        in
        List.iter
          (fun (what, text, line) ->
            match Qubikos.Serialize.of_string text with
            | _ -> Alcotest.fail (what ^ " accepted")
            | exception Failure msg ->
                check_bool what true
                  (contains msg (Printf.sprintf "Serialize: line %d: " line)))
          [
            ("repeated position", edited ~record:"initial" repeat_first, 5);
            ("self swap", edited ~record:"ops" (fun l -> l ^ " S0:0"), 6);
            ("gate past the circuit", edited ~record:"ops" (fun l -> l ^ " G999"), 6);
          ]);
    test_case "tampered claims are caught by the certificate after reload"
      (fun () ->
        let b = gen ~device:(Topologies.grid 3 3) ~n_swaps:2 ~gate_budget:30 ~seed:8 () in
        let text = Qubikos.Serialize.to_string b in
        let buf = Buffer.create (String.length text) in
        String.split_on_char '\n' text
        |> List.iter (fun l ->
               Buffer.add_string buf
                 (if l = "optimal_swaps 2" then "optimal_swaps 3" else l);
               Buffer.add_char buf '\n');
        let b' = Qubikos.Serialize.of_string (Buffer.contents buf) in
        check_bool "certificate rejects" true
          (Result.is_error (Certificate.check b')));
    test_case "a cut backbone line is refuted after reload" (fun () ->
        (* Cut section 1 to its special gate, the last index on its line:
           the file's metadata stays well formed, but the section's graph,
           read off the circuit, is now one edge. *)
        let b = gen ~device:(Topologies.grid 3 3) ~n_swaps:2 ~gate_budget:30 ~seed:8 () in
        let cut = ref false in
        let lines =
          List.map
            (fun l ->
              match String.split_on_char ' ' l with
              | "backbone" :: (_ :: _ as indices) when not !cut ->
                  cut := true;
                  "backbone " ^ List.nth indices (List.length indices - 1)
              | _ -> l)
            (String.split_on_char '\n' (Qubikos.Serialize.to_string b))
        in
        check_bool "cut" true !cut;
        let b' = Qubikos.Serialize.of_string (String.concat "\n" lines) in
        match Certificate.check b' with
        | Ok () -> Alcotest.fail "a cut section still certifies"
        | Error fs ->
            check_bool "section 1's degrees fit" true
              (List.mem (Certificate.Section_degrees_fit 1) fs));
  ]

(* A routed count below the certified optimum is an alarm, raised as a
   typed error before anything can aggregate or cache it. No correct
   router can produce one on a certified instance, so the check is
   driven directly. *)
let optimality_tests =
  [
    test_case "a count below the optimum raises Optimality_violated"
      (fun () ->
        Certificate.check_routed ~tool:"sabre" ~optimum:5 5;
        Certificate.check_routed ~tool:"sabre" ~optimum:5 12;
        match Certificate.check_routed ~tool:"sabre" ~optimum:5 4 with
        | () -> Alcotest.fail "no error below the optimum"
        | exception Certificate.Optimality_violated { tool; swaps; optimum }
          ->
            Alcotest.(check string) "tool" "sabre" tool;
            check_int "swaps" 4 swaps;
            check_int "optimum" 5 optimum);
    test_case "a campaign task fails permanently on a violation" (fun () ->
        let e =
          Qls_harness.Herror.of_exn ~site:"runner.exec"
            (Certificate.Optimality_violated
               { tool = "qmap"; swaps = 2; optimum = 3 })
        in
        check_bool "permanent, never retried" false
          (Qls_harness.Herror.retryable e);
        Alcotest.(check string)
          "message"
          "optimality violated: qmap routed with 2 SWAPs, below the certified \
           optimum 3"
          e.Qls_harness.Herror.message);
  ]

let () =
  Alcotest.run "qubikos"
    [
      ("generator", generator_tests);
      ("generator-properties", List.map QCheck_alcotest.to_alcotest generator_props);
      ("certificate", certificate_tests);
      ( "certificate-properties",
        List.map QCheck_alcotest.to_alcotest certificate_props );
      ("queko", queko_tests);
      ("evaluation", evaluation_tests);
      ("serialize", serialize_tests);
      ("optimality", optimality_tests);
    ]
