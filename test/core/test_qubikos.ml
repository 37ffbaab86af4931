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
            let keep =
              List.filter
                (fun v -> Graph.degree s.Benchmark.interaction v > 0)
                (List.init (Graph.n_vertices s.Benchmark.interaction) Fun.id)
            in
            let pattern, _ = Graph.induced s.Benchmark.interaction keep in
            check_bool "not embeddable" false
              (Vf2.exists ~pattern ~target:(Device.graph b.Benchmark.device) ()))
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
  ]

let generator_props =
  [
    QCheck.Test.make ~name:"random instances pass the full certificate" ~count:30
      QCheck.(pair (int_range 1 4) (int_range 0 10_000))
      (fun (n_swaps, seed) ->
        let device =
          match seed mod 3 with
          | 0 -> Topologies.grid 3 3
          | 1 -> Topologies.aspen4 ()
          | _ -> Topologies.ring 8
        in
        let b = gen ~device ~n_swaps ~gate_budget:(20 * n_swaps) ~seed () in
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
        let b = gen ~n_swaps:1 () in
        let tampered_sections =
          List.map
            (fun s ->
              {
                s with
                Benchmark.interaction =
                  Qls_graph.Generators.path (Device.n_qubits b.Benchmark.device);
              })
            b.Benchmark.sections
        in
        match Certificate.check { b with Benchmark.sections = tampered_sections } with
        | Ok () -> Alcotest.fail "expected failure"
        | Error fs ->
            check_bool "embeddable" true
              (List.exists
                 (function Certificate.Section_embeddable _ -> true | _ -> false)
                 fs));
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
    test_case "detects broken section serialisation" (fun () ->
        (* Hand-build a fake 2-section benchmark whose sections are fully
           parallel: two disjoint adjacent pairs. *)
        let device = Topologies.line 4 in
        let circuit =
          Circuit.create ~n_qubits:4 [ Gate.cx 0 1; Gate.cx 2 3 ]
        in
        let initial = Mapping.identity ~n_program:4 ~n_physical:4 in
        let designed =
          Transpiled.create ~source:circuit ~device ~initial
            [ Transpiled.Gate 0; Transpiled.Swap (0, 1); Transpiled.Gate 1;
              Transpiled.Swap (2, 3) ]
        in
        let star5 = Qls_graph.Generators.star 5 in
        let section index special_ci swap =
          {
            Benchmark.index;
            swap;
            anchor = 0;
            target = 3;
            special_circuit_index = special_ci;
            backbone_circuit_indices = [ special_ci ];
            interaction = star5;
            mapping_before = initial;
            mapping_after = Mapping.swap_physical initial (fst swap) (snd swap);
          }
        in
        let fake =
          {
            Benchmark.device;
            circuit;
            optimal_swaps = 2;
            initial_mapping = initial;
            designed;
            sections = [ section 1 0 (0, 1); section 2 1 (2, 3) ];
            seed = 0;
          }
        in
        match Certificate.check fake with
        | Ok () -> Alcotest.fail "expected failure"
        | Error fs ->
            check_bool "parallel sections caught" true
              (List.exists
                 (function
                   | Certificate.Sections_parallel _ | Certificate.Dependency_broken _ ->
                       true
                   | _ -> false)
                 fs));
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
    test_case "check_exact portfolio records a winner seed" (fun () ->
        let b = gen ~n_swaps:2 ~saturation_cap:1 ~seed:4 () in
        let r = Certificate.check_exact ~portfolio_seeds:[ 0; 1 ] b in
        check_bool "confirmed" true (r.Certificate.exact_agrees = Some true);
        check_bool "winner recorded" true
          (match r.Certificate.winner_seed with
          | Some s -> List.mem s [ 0; 1 ]
          | None -> false));
    test_case "pp_failure output is non-empty for all cases" (fun () ->
        List.iter
          (fun f ->
            check_bool "non-empty" true
              (String.length (Format.asprintf "%a" Certificate.pp_failure f) > 0))
          [
            Certificate.Section_embeddable 1;
            Certificate.Dependency_broken { section = 1; gate = 2 };
            Certificate.Sections_parallel { earlier = 1; later = 2 };
            Certificate.Designed_invalid "x";
            Certificate.Wrong_swap_count { designed = 1; claimed = 2 };
          ]);
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
            let keep =
              List.filter
                (fun v -> Graph.degree s1.Benchmark.interaction v > 0)
                (List.init (Graph.n_vertices s1.Benchmark.interaction) Fun.id)
            in
            let pattern, _ = Graph.induced s1.Benchmark.interaction keep in
            check_bool "section 1 not embeddable" false
              (Vf2.exists ~pattern ~target:(Device.graph b.Benchmark.device) ())
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
    test_case "run_point produces sane ratios" (fun () ->
        let device = Topologies.grid 3 3 in
        let config =
          {
            (Evaluation.default_figure_config device) with
            circuits_per_point = 2;
            gate_budget = 40;
            sabre_trials = 2;
          }
        in
        let tools = [ Sabre.router ~options:(Sabre.with_trials 2 Sabre.default_options) () ] in
        let points = Evaluation.run_point ~tools ~config ~n_swaps:2 device in
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
              r.Evaluation.o_exact_confirmed)
          rows);
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
        check_bool "bad device" true
          (try
             ignore (Qubikos.Serialize.of_string "QUBIKOS 1\ndevice nope\n");
             false
           with Failure _ -> true);
        check_bool "garbage" true
          (try
             ignore (Qubikos.Serialize.of_string "hello world\n");
             false
           with Failure _ -> true));
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
  ]

let () =
  Alcotest.run "qubikos"
    [
      ("generator", generator_tests);
      ("generator-properties", List.map QCheck_alcotest.to_alcotest generator_props);
      ("certificate", certificate_tests);
      ("queko", queko_tests);
      ("evaluation", evaluation_tests);
      ("serialize", serialize_tests);
    ]
