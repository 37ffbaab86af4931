(* Tests for the qls_router library: the routing skeleton, placement,
   the four QLS tools, the exact solver (cross-checked against a
   brute-force oracle) and the registry. *)

module Gate = Qls_circuit.Gate
module Circuit = Qls_circuit.Circuit
module Dag = Qls_circuit.Dag
module Random_circuit = Qls_circuit.Random_circuit
module Topologies = Qls_arch.Topologies
module Device = Qls_arch.Device
module Mapping = Qls_layout.Mapping
module Transpiled = Qls_layout.Transpiled
module Verifier = Qls_layout.Verifier
module Route_state = Qls_router.Route_state
module Placement = Qls_router.Placement
module Router = Qls_router.Router
module Sabre = Qls_router.Sabre
module Tket_router = Qls_router.Tket_router
module Astar_router = Qls_router.Astar_router
module Mlqls = Qls_router.Mlqls
module Exact = Qls_router.Exact
module Olsq = Qls_router.Olsq
module Registry = Qls_router.Registry
module Rng = Qls_graph.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let test_case name f = Alcotest.test_case name `Quick f

(* Mirrors gen_goldens.fingerprint: MD5 over initial mapping + ops. Used
   by the goldens and by every byte-identity assertion below. *)
let fingerprint t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "init:";
  Array.iter
    (fun p -> Buffer.add_string buf (Printf.sprintf "%d," p))
    (Mapping.to_array (Transpiled.initial_mapping t));
  Buffer.add_string buf "|ops:";
  List.iter
    (function
      | Transpiled.Gate i -> Buffer.add_string buf (Printf.sprintf "G%d;" i)
      | Transpiled.Swap (p, p') ->
          Buffer.add_string buf (Printf.sprintf "S%d:%d;" p p'))
    (Transpiled.ops t);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A routing state over the source's own DAG. *)
let new_state ~device ~source ~initial =
  Route_state.create ~device ~source ~dag:(Dag.of_circuit source) ~initial

(* The buffer queries of Route_state, read back as lists. *)
let candidates st =
  let n = Route_state.swap_candidates st in
  let buf = Route_state.candidate_pairs st in
  List.init n (fun i -> (buf.(2 * i), buf.((2 * i) + 1)))

let extended st ~size =
  let n = Route_state.extended_set st ~size in
  Array.to_list (Array.sub (Route_state.extended_buffer st) 0 n)

(* A circuit whose gates are all executable under the identity mapping on
   a line: consecutive-qubit CNOTs. *)
let adjacent_circuit n_qubits n_gates =
  Circuit.create ~n_qubits
    (List.init n_gates (fun i -> Gate.cx (i mod (n_qubits - 1)) ((i mod (n_qubits - 1)) + 1)))

(* The triangle circuit of the paper's Fig. 1. *)
let triangle () =
  Circuit.create ~n_qubits:3 [ Gate.cx 0 1; Gate.cx 1 2; Gate.cx 0 2 ]

(* ------------------------------------------------------------------ *)
(* Metric registration: runs first, before anything has routed.         *)
(* ------------------------------------------------------------------ *)

(* The routers' and the solver's counters are plain module-level values,
   registered when their modules initialise. As lazy values they were
   created on first use, and parallel SABRE trials forcing one for the
   first time on two domains at once raised [CamlinternalLazy.Undefined]
   on one of them. *)
let registration_tests =
  [
    test_case "router and sat counters exist before any route" (fun () ->
        let names = List.map fst (Qls_obs.counters ()) in
        List.iter
          (fun n -> check_bool n true (List.mem n names))
          [
            "router.rounds";
            "router.gates";
            "router.astar.pushes";
            "router.astar.pops";
            "router.astar.exhausted";
            "sat.conflicts";
            "sat.learned";
            "sat.restarts";
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Route_state                                                         *)
(* ------------------------------------------------------------------ *)

let route_state_tests =
  [
    test_case "advance executes an adjacent circuit completely" (fun () ->
        let device = Topologies.line 5 in
        let source = adjacent_circuit 5 12 in
        let st =
          new_state ~device ~source
            ~initial:(Placement.identity device source)
        in
        check_int "all emitted" 12 (Route_state.advance st);
        check_bool "finished" true (Route_state.finished st);
        let t = Route_state.finish st in
        check_int "no swaps" 0 (Verifier.check_exn t).Verifier.swap_count);
    test_case "blocked front after advance" (fun () ->
        let device = Topologies.line 3 in
        let source = triangle () in
        let st =
          new_state ~device ~source
            ~initial:(Placement.identity device source)
        in
        ignore (Route_state.advance st);
        check_int "one blocked" 1 (List.length (Route_state.front st));
        check_int "distance 2" 2
          (Route_state.gate_distance st (List.hd (Route_state.front st))));
    test_case "apply_swap updates mapping and unblocks" (fun () ->
        let device = Topologies.line 3 in
        let source = triangle () in
        let st =
          new_state ~device ~source
            ~initial:(Placement.identity device source)
        in
        ignore (Route_state.advance st);
        Route_state.apply_swap st 1 2;
        check_int "emits the last gate" 1 (Route_state.advance st);
        check_int "one swap" 1 (Route_state.swap_count st);
        let t = Route_state.finish st in
        check_int "verified swaps" 1 (Verifier.check_exn t).Verifier.swap_count);
    test_case "apply_swap rejects non-couplers" (fun () ->
        let device = Topologies.line 3 in
        let source = triangle () in
        let st =
          new_state ~device ~source
            ~initial:(Placement.identity device source)
        in
        check_bool "raises" true
          (try
             Route_state.apply_swap st 0 2;
             false
           with Invalid_argument _ -> true));
    test_case "swap candidates touch front-layer qubits" (fun () ->
        let device = Topologies.line 5 in
        let source = Circuit.create ~n_qubits:5 [ Gate.cx 0 4 ] in
        let st =
          new_state ~device ~source
            ~initial:(Placement.identity device source)
        in
        ignore (Route_state.advance st);
        Alcotest.(check (list (pair int int))) "edges at 0 and 4"
          [ (0, 1); (3, 4) ]
          (candidates st));
    test_case "extended set follows successors breadth-first" (fun () ->
        let device = Topologies.line 4 in
        let source =
          Circuit.create ~n_qubits:4
            [ Gate.cx 0 2; Gate.cx 0 1; Gate.cx 1 2; Gate.cx 2 3 ]
        in
        let st =
          new_state ~device ~source
            ~initial:(Placement.identity device source)
        in
        ignore (Route_state.advance st);
        (* gate 0 (0,2) is blocked; its successors 1, 2 then 3 follow *)
        Alcotest.(check (list int)) "lookahead order" [ 1; 2; 3 ]
          (extended st ~size:10);
        Alcotest.(check (list int)) "capped" [ 1 ] (extended st ~size:1));
    test_case "remaining_layers matches ASAP slices initially" (fun () ->
        let rng = Rng.create 5 in
        let source = Random_circuit.uniform rng ~n_qubits:6 ~n_two_qubit:20 ~single_ratio:0.0 in
        let device = Topologies.grid 2 3 in
        let st =
          new_state ~device ~source
            ~initial:(Placement.identity device source)
        in
        let expected = Qls_circuit.Layers.slices_of_dag (Route_state.dag st) in
        Alcotest.(check (list (list int))) "layers" expected
          (Route_state.remaining_layers st ~max_layers:max_int));
    test_case "finish rejects unfinished states" (fun () ->
        let device = Topologies.line 3 in
        let st =
          new_state ~device ~source:(triangle ())
            ~initial:(Mapping.identity ~n_program:3 ~n_physical:3)
        in
        check_bool "raises" true
          (try
             ignore (Route_state.finish st);
             false
           with Invalid_argument _ -> true));
    test_case "progress counters and snapshots" (fun () ->
        let device = Topologies.line 3 in
        let source = triangle () in
        let st =
          new_state ~device ~source
            ~initial:(Placement.identity device source)
        in
        check_int "nothing done" 0 (Route_state.done_count st);
        check_int "all remaining" 3 (Route_state.remaining st);
        ignore (Route_state.advance st);
        check_int "two done" 2 (Route_state.done_count st);
        check_int "one left" 1 (Route_state.remaining st);
        let q2p = Route_state.phys_table st and dag = Route_state.dag st in
        Alcotest.(check (list (pair int int))) "physical front" [ (0, 2) ]
          (List.map
             (fun v ->
               let a, b = Dag.pair dag v in
               (q2p.(a), q2p.(b)))
             (Route_state.front st));
        (* The snapshot is a copy: later SWAPs move the live table only. *)
        let snap = Route_state.mapping st in
        check_bool "snapshot matches the live table" true
          (Mapping.to_array snap = Route_state.phys_table st);
        Route_state.apply_swap st 1 2;
        Alcotest.(check (array int)) "live table swapped in place" [| 0; 2; 1 |]
          (Route_state.phys_table st);
        Alcotest.(check (array int)) "snapshot unchanged" [| 0; 1; 2 |]
          (Mapping.to_array snap));
    test_case "force_route_first unblocks the earliest gate" (fun () ->
        let device = Topologies.line 5 in
        let source = Circuit.create ~n_qubits:5 [ Gate.cx 0 4 ] in
        let st =
          new_state ~device ~source
            ~initial:(Placement.identity device source)
        in
        ignore (Route_state.advance st);
        Route_state.force_route_first st;
        check_int "now executable" 1 (Route_state.advance st);
        check_int "3 swaps along the line" 3 (Route_state.swap_count st));
    test_case "create rejects disconnected devices with a typed error"
      (fun () ->
        (* Two disjoint 2-qubit couplers: routing across the gap is
           ill-posed, and the old behaviour was a mid-round crash deep in
           a router ([failwith "no progress"] / [Rng.pick []]). *)
        let g = Qls_graph.Graph.create 4 [ (0, 1); (2, 3) ] in
        let device =
          Device.create ~allow_disconnected:true ~name:"split" g
        in
        let source = Circuit.create ~n_qubits:4 [ Gate.cx 0 2 ] in
        check_bool "raises Invalid_argument" true
          (try
             ignore
               (new_state ~device ~source
                  ~initial:(Mapping.identity ~n_program:4 ~n_physical:4));
             false
           with Invalid_argument msg ->
             (* The message names the defect, not just "bad input". *)
             let contains hay needle =
               let nh = String.length hay and nn = String.length needle in
               let rec go i =
                 i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
               in
               go 0
             in
             contains msg "disconnected"));
    test_case "single-qubit gates keep their per-qubit order" (fun () ->
        let device = Topologies.line 3 in
        let source =
          Circuit.create ~n_qubits:3
            [ Gate.h 0; Gate.cx 0 1; Gate.x 0; Gate.h 2; Gate.cx 1 2; Gate.x 2 ]
        in
        let st =
          new_state ~device ~source
            ~initial:(Placement.identity device source)
        in
        ignore (Route_state.advance st);
        let t = Route_state.finish st in
        check_int "valid, no swaps" 0 (Verifier.check_exn t).Verifier.swap_count;
        check_int "all gates present" 6 (List.length (Transpiled.ops t)));
    test_case "pick_tied: a unique minimum wins whatever the draw" (fun () ->
        let scores = [| 3.0; 0.5; 2.0; 0.5 +. 1e-6 |] in
        for seed = 0 to 31 do
          check_int "lowest" 1
            (Route_state.pick_tied ~rng:(Rng.create seed) scores 4)
        done);
    test_case "pick_tied: one draw over the scores within 1e-12 of the lowest"
      (fun () ->
        (* Indices 1, 2 and 4 tie; 3 is 2e-12 above the lowest. The pick
           must be the element Rng.pick draws from the tied indices in
           buffer order, with the same single draw — SABRE and tket routes
           depend on it byte for byte. *)
        let scores = [| 3.0; 1.0; 1.0 +. 5e-13; 1.0 +. 2e-12; 1.0 |] in
        let seen = Array.make 5 false in
        for seed = 0 to 63 do
          let i = Route_state.pick_tied ~rng:(Rng.create seed) scores 5 in
          check_int "as Rng.pick" (Rng.pick (Rng.create seed) [ 1; 2; 4 ]) i;
          seen.(i) <- true
        done;
        Alcotest.(check (array bool)) "every tie drawn, nothing else"
          [| false; true; true; false; true |] seen);
    test_case "pick_tied: the window is absolute at any magnitude" (fun () ->
        (* 1e-6 apart at 1e9 is 1e-15 relative: a relative window would
           tie them, the absolute one does not. *)
        let scores = [| 1e9 +. 1e-6; 1e9 |] in
        for seed = 0 to 31 do
          check_int "strictly lower wins" 1
            (Route_state.pick_tied ~rng:(Rng.create seed) scores 2)
        done);
    test_case "pick_tied: -1 on no candidates or a NaN score; reads only n"
      (fun () ->
        let rng = Rng.create 0 in
        check_int "empty" (-1) (Route_state.pick_tied ~rng [||] 0);
        check_int "NaN" (-1)
          (Route_state.pick_tied ~rng [| 1.0; Float.nan; 0.5 |] 3);
        (* Stale entries past [n] are ignored, as the routers reuse one
           score buffer across rounds. *)
        check_int "prefix" 1
          (Route_state.pick_tied ~rng [| 2.0; 1.0; 0.0; Float.nan |] 2));
  ]

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

let placement_tests =
  [
    test_case "identity and random are valid mappings" (fun () ->
        let device = Topologies.grid 3 3 in
        let c = triangle () in
        let rng = Rng.create 1 in
        check_int "identity" 0 (Mapping.phys (Placement.identity device c) 0);
        let m = Placement.random rng device c in
        check_int "programs" 3 (Mapping.n_program m));
    test_case "vf2 placement solves an embeddable circuit" (fun () ->
        let device = Topologies.grid 3 3 in
        let c = Circuit.create ~n_qubits:4 [ Gate.cx 0 1; Gate.cx 1 2; Gate.cx 2 3 ] in
        match Placement.vf2 device c with
        | None -> Alcotest.fail "path embeds in grid"
        | Some m -> check_int "swap-free" 0 (Placement.spread_cost device c m));
    test_case "vf2 placement fails on non-embeddable circuits" (fun () ->
        let device = Topologies.line 4 in
        check_bool "triangle on a line" true (Placement.vf2 device (triangle ()) = None));
    test_case "degree_greedy is injective" (fun () ->
        let rng = Rng.create 2 in
        let device = Topologies.grid 3 3 in
        let c = Random_circuit.uniform rng ~n_qubits:9 ~n_two_qubit:20 ~single_ratio:0.0 in
        let m = Placement.degree_greedy rng device c in
        let a = Mapping.to_array m in
        check_int "all distinct" 9 (List.length (List.sort_uniq compare (Array.to_list a))));
    test_case "spread_cost is zero iff executable in place" (fun () ->
        let device = Topologies.line 5 in
        let c = adjacent_circuit 5 6 in
        check_int "adjacent" 0
          (Placement.spread_cost device c (Placement.identity device c)));
  ]

(* ------------------------------------------------------------------ *)
(* Router property: every tool's output verifies, and never beats the   *)
(* exact optimum.                                                       *)
(* ------------------------------------------------------------------ *)

let mk_random_circuit seed =
  let rng = Rng.create seed in
  let n_gates = 4 + Rng.int rng 12 in
  Random_circuit.uniform rng ~n_qubits:6 ~n_two_qubit:n_gates ~single_ratio:0.3

let all_tools =
  [
    Sabre.router ();
    Sabre.router ~options:{ Sabre.default_options with lookahead_decay = Some 0.7 } ();
    Tket_router.router ();
    Astar_router.router ();
    Mlqls.router ();
  ]

let router_props =
  List.map
    (fun tool ->
      QCheck.Test.make
        ~name:(Printf.sprintf "%s output always verifies" tool.Router.name)
        ~count:40
        QCheck.(int_range 0 100_000)
        (fun seed ->
          let c = mk_random_circuit seed in
          let device = Topologies.grid 2 3 in
          let _, report = Router.run_verified tool device c in
          report.Verifier.swap_count >= 0))
    all_tools
  @ [
      QCheck.Test.make ~name:"no heuristic beats the exact optimum" ~count:15
        QCheck.(int_range 0 100_000)
        (fun seed ->
          let c = mk_random_circuit seed in
          let device = Topologies.grid 2 3 in
          match Exact.minimum_swaps ~max_swaps:8 device c with
          | Exact.Unknown_above _ -> QCheck.assume_fail ()
          | Exact.Optimal { swaps = opt; _ } ->
              List.for_all
                (fun tool -> Router.swap_count tool device c >= opt)
                all_tools);
    ]

(* ------------------------------------------------------------------ *)
(* SABRE specifics                                                     *)
(* ------------------------------------------------------------------ *)

let sabre_tests =
  [
    test_case "solves the Fig. 1 instance with one swap" (fun () ->
        let device = Topologies.line 4 in
        let t =
          Sabre.route
            ~options:(Sabre.with_trials 8 Sabre.default_options)
            device (triangle ())
        in
        check_int "one swap" 1 (Verifier.check_exn t).Verifier.swap_count);
    test_case "zero swaps when given a perfect initial mapping" (fun () ->
        let device = Topologies.line 5 in
        let c = adjacent_circuit 5 10 in
        let t = Sabre.route ~initial:(Placement.identity device c) device c in
        check_int "zero" 0 (Verifier.check_exn t).Verifier.swap_count);
    test_case "more trials never hurt (nested seeds)" (fun () ->
        let rng = Rng.create 9 in
        let device = Topologies.grid 3 3 in
        let c = Random_circuit.uniform rng ~n_qubits:9 ~n_two_qubit:40 ~single_ratio:0.0 in
        let swaps k =
          Transpiled.swap_count
            (Sabre.route ~options:(Sabre.with_trials k Sabre.default_options) device c)
        in
        check_bool "monotone" true (swaps 6 <= swaps 1));
    test_case "route_traced records decisions" (fun () ->
        let device = Topologies.line 4 in
        let t, decisions =
          Sabre.route_traced
            ~initial:(Mapping.of_array ~n_physical:4 [| 0; 1; 2 |])
            device (triangle ())
        in
        check_bool "some decision" true (List.length decisions > 0);
        check_bool "valid" true (Verifier.is_valid t);
        List.iter
          (fun d ->
            check_bool "chosen among candidates" true
              (List.mem_assoc d.Sabre.chosen d.Sabre.candidates);
            check_bool "candidates scored ascending" true
              (let scores = List.map snd d.Sabre.candidates in
               List.sort compare scores = scores))
          decisions);
    test_case "lookahead decay changes the name" (fun () ->
        let r =
          Sabre.router
            ~options:{ Sabre.default_options with lookahead_decay = Some 0.5 }
            ()
        in
        Alcotest.(check string) "name" "sabre-decay" r.Router.name;
        Alcotest.(check string) "stock name" "sabre" (Sabre.router ()).Router.name);
    test_case "deterministic for a fixed seed" (fun () ->
        let device = Topologies.grid 3 3 in
        let rng = Rng.create 77 in
        let c = Random_circuit.uniform rng ~n_qubits:9 ~n_two_qubit:30 ~single_ratio:0.0 in
        let t1 = Sabre.route device c and t2 = Sabre.route device c in
        check_int "same result" (Transpiled.swap_count t1) (Transpiled.swap_count t2));
    test_case "route rejects invalid options with typed errors" (fun () ->
        let device = Topologies.line 4 in
        let c = triangle () in
        let rejects what opts =
          check_bool what true
            (try
               ignore (Sabre.route ~options:opts device c);
               false
             with Invalid_argument _ -> true)
        in
        let nan_decay =
          { Sabre.default_options with Sabre.lookahead_decay = Some Float.nan }
        in
        rejects "NaN lookahead_decay" nan_decay;
        rejects "negative lookahead_decay"
          { Sabre.default_options with Sabre.lookahead_decay = Some (-0.7) };
        (* route_traced shares the validation. *)
        check_bool "route_traced rejects too" true
          (try
             ignore (Sabre.route_traced ~options:nan_decay device c);
             false
           with Invalid_argument _ -> true);
        (* And the defaults still route. *)
        check_bool "defaults valid" true
          (Verifier.is_valid (Sabre.route device c)));
  ]

(* ------------------------------------------------------------------ *)
(* Parallel multi-trial SABRE: the pool fan-out must reproduce the      *)
(* sequential trial loop byte for byte, at every trial count and seed.  *)
(* ------------------------------------------------------------------ *)

let parallel_trial_tests =
  [
    test_case "parallel trials byte-identical to sequential (trial/seed grid)"
      (fun () ->
        let device = Topologies.grid 3 3 in
        let rng = Rng.create 123 in
        let c =
          Random_circuit.uniform rng ~n_qubits:9 ~n_two_qubit:30
            ~single_ratio:0.2
        in
        List.iter
          (fun trials ->
            List.iter
              (fun seed ->
                let opts = { Sabre.default_options with Sabre.trials; seed } in
                (* jobs:1 degenerates Pool.run to the historical inline
                   loop; the default fans out across domains. *)
                let seq = Sabre.route ~options:opts ~jobs:1 device c in
                let par = Sabre.route ~options:opts device c in
                Alcotest.(check string)
                  (Printf.sprintf "trials=%d seed=%d" trials seed)
                  (fingerprint seq) (fingerprint par))
              [ 0; 1; 7; 42 ])
          [ 1; 2; 4; 8 ]);
    test_case "parallel trials honour an expired ambient deadline" (fun () ->
        let device = Topologies.grid 3 3 in
        let rng = Rng.create 321 in
        let c =
          Random_circuit.uniform rng ~n_qubits:9 ~n_two_qubit:40
            ~single_ratio:0.0
        in
        let token = Qls_cancel.make ~deadline_ms:1 () in
        Unix.sleepf 0.005;
        check_bool "Expired propagates out of the fan-out" true
          (try
             Qls_cancel.with_token token (fun () ->
                 ignore
                   (Sabre.route
                      ~options:(Sabre.with_trials 4 Sabre.default_options)
                      device c);
                 false)
           with Qls_cancel.Expired _ -> true));
  ]

(* ------------------------------------------------------------------ *)
(* A* closed set: exact at every device size (the >256-qubit collision  *)
(* regression).                                                         *)
(* ------------------------------------------------------------------ *)

let closed_set_tests =
  [
    test_case "distinguishes mappings the old 1-byte key conflated"
      (fun () ->
        let n_phys = 300 in
        (* The pre-rewrite closed-set key, reproduced verbatim: each
           physical index truncated to one byte. On any device with more
           than 256 physical qubits this conflates distinct mappings —
           the old A* then treated the second as already expanded and
           silently pruned live search states. *)
        let old_key m =
          let arr = Mapping.to_array m in
          let b = Bytes.create (Array.length arr) in
          Array.iteri (fun i p -> Bytes.set b i (Char.chr (p land 0xff))) arr;
          Bytes.to_string b
        in
        let a = Mapping.of_array ~n_physical:n_phys [| 1 |] in
        let b = Mapping.of_array ~n_physical:n_phys [| 257 |] in
        check_bool "mappings are distinct" false (Mapping.equal a b);
        Alcotest.(check string) "old key collides (the bug)" (old_key a)
          (old_key b);
        let closed = Astar_router.Closed.create ~n_prog:1 ~n_phys in
        check_bool "insert a" true (Astar_router.Closed.add closed a);
        check_bool "b not conflated with a" false
          (Astar_router.Closed.mem closed b);
        check_bool "insert b" true (Astar_router.Closed.add closed b);
        check_bool "a still present" true (Astar_router.Closed.mem closed a);
        check_bool "b present" true (Astar_router.Closed.mem closed b);
        check_bool "re-insert a refused" false
          (Astar_router.Closed.add closed a));
    test_case "qmap routes correctly on a 300-qubit path device" (fun () ->
        (* End-to-end on the device class the old key corrupted: qubits
           past index 255 alias below-256 positions under 1-byte
           truncation. *)
        let device =
          Device.create ~name:"line300"
            (Qls_graph.Graph.create 300
               (List.init 299 (fun i -> (i, i + 1))))
        in
        let c =
          Circuit.create ~n_qubits:300
            [ Gate.cx 254 256; Gate.cx 255 257; Gate.cx 253 258 ]
        in
        let t = Astar_router.route device c in
        check_bool "verifies" true (Verifier.is_valid t));
  ]

let closed_set_props =
  [
    QCheck.Test.make ~name:"closed set add/mem is exact on 300 qubits"
      ~count:50
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Rng.create seed in
        let n_phys = 300 in
        let m1 = Mapping.random rng ~n_program:5 ~n_physical:n_phys in
        let m2 = Mapping.random rng ~n_program:5 ~n_physical:n_phys in
        let closed = Astar_router.Closed.create ~n_prog:5 ~n_phys in
        ignore (Astar_router.Closed.add closed m1);
        Astar_router.Closed.mem closed m1
        && Mapping.equal m1 m2 = Astar_router.Closed.mem closed m2);
    (* Enough distinct mappings to grow the slot store and the table
       several times, with many repeats: every answer matches a model. *)
    QCheck.Test.make ~name:"closed set matches a model across growth"
      ~count:20
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Rng.create seed in
        let closed = Astar_router.Closed.create ~n_prog:4 ~n_phys:8 in
        let model = Hashtbl.create 1024 in
        List.for_all
          (fun _ ->
            let m = Mapping.random rng ~n_program:4 ~n_physical:8 in
            let key = Mapping.to_array m in
            let fresh = not (Hashtbl.mem model key) in
            let probe = Mapping.random rng ~n_program:4 ~n_physical:8 in
            Hashtbl.replace model key ();
            Astar_router.Closed.add closed m = fresh
            && Astar_router.Closed.mem closed m
            && Astar_router.Closed.mem closed probe
               = Hashtbl.mem model (Mapping.to_array probe))
          (List.init 1500 Fun.id));
    (* The diff-slot set against the frozen flat-slot set. SWAP walks
       that restart from the identity (the set's root outside a search)
       give short diffs that recur; random mappings give long ones. The
       shapes cover a full device, devices wider than the program, and
       one above 256 qubits. *)
    QCheck.Test.make ~name:"closed set answers as the frozen flat-slot set"
      ~count:40
      QCheck.(
        pair (int_range 0 100_000)
          (oneofl [ (5, 5); (4, 9); (6, 16); (10, 300) ]))
      (fun (seed, (n_prog, n_phys)) ->
        let rng = Rng.create seed in
        let closed = Astar_router.Closed.create ~n_prog ~n_phys in
        let oracle = Closed_oracle.create ~n_prog ~n_phys in
        let identity = Mapping.identity ~n_program:n_prog ~n_physical:n_phys in
        let walk = ref identity in
        (* [m] with the position of a random program qubit exchanged
           with another position, occupied or not. *)
        let step m =
          let p = Mapping.phys m (Rng.int rng n_prog) in
          let p' = (p + 1 + Rng.int rng (n_phys - 1)) mod n_phys in
          Mapping.swap_physical m p p'
        in
        let random () = Mapping.random rng ~n_program:n_prog ~n_physical:n_phys in
        List.for_all
          (fun i ->
            if i mod 20 = 0 then walk := identity;
            let m =
              if i mod 7 = 6 then random ()
              else begin
                walk := step !walk;
                !walk
              end
            in
            let probe = if Rng.bool rng then step !walk else random () in
            Astar_router.Closed.add closed m = Closed_oracle.add oracle m
            && Astar_router.Closed.mem closed probe
               = Closed_oracle.mem oracle probe)
          (List.init 2000 Fun.id));
  ]

(* ------------------------------------------------------------------ *)
(* Other tools                                                         *)
(* ------------------------------------------------------------------ *)

let tool_tests =
  [
    test_case "tket solves embeddable circuits with zero swaps" (fun () ->
        let device = Topologies.grid 3 3 in
        let c = Circuit.create ~n_qubits:5 [ Gate.cx 0 1; Gate.cx 1 2; Gate.cx 2 3; Gate.cx 3 4 ] in
        let t = Tket_router.route device c in
        check_int "vf2 placement" 0 (Verifier.check_exn t).Verifier.swap_count);
    test_case "tket handles the triangle on a line" (fun () ->
        let device = Topologies.line 4 in
        let t = Tket_router.route device (triangle ()) in
        check_bool "needs >= 1 swap" true ((Verifier.check_exn t).Verifier.swap_count >= 1));
    test_case "qmap solves an in-place layer with zero swaps" (fun () ->
        let device = Topologies.line 5 in
        let c = adjacent_circuit 5 8 in
        let t = Astar_router.route ~initial:(Placement.identity device c) device c in
        check_int "zero" 0 (Verifier.check_exn t).Verifier.swap_count);
    test_case "qmap fallback path still verifies" (fun () ->
        (* node_budget 0 forces the shortest-path fallback on every layer *)
        let device = Topologies.grid 3 3 in
        let rng = Rng.create 4 in
        let c = Random_circuit.uniform rng ~n_qubits:9 ~n_two_qubit:25 ~single_ratio:0.0 in
        let t =
          Astar_router.route
            ~options:{ Astar_router.node_budget = 0 }
            device c
        in
        check_bool "valid" true (Verifier.is_valid t));
    test_case "mlqls placement is injective and complete" (fun () ->
        let device = Topologies.grid 3 4 in
        let rng = Rng.create 6 in
        let c = Random_circuit.uniform rng ~n_qubits:10 ~n_two_qubit:30 ~single_ratio:0.0 in
        let m = Mlqls.place device c in
        check_int "programs" 10 (Mapping.n_program m);
        let a = Mapping.to_array m in
        check_int "injective" 10 (List.length (List.sort_uniq compare (Array.to_list a))));
    test_case "mlqls on a circuit with no two-qubit gates" (fun () ->
        let device = Topologies.line 3 in
        let c = Circuit.create ~n_qubits:3 [ Gate.h 0; Gate.h 1 ] in
        let t = Mlqls.route device c in
        check_int "zero swaps" 0 (Verifier.check_exn t).Verifier.swap_count);
    test_case "mlqls multilevel placement beats random on clustered circuits"
      (fun () ->
        let device = Topologies.grid 4 4 in
        let rng = Rng.create 8 in
        (* two tight clusters of qubits *)
        let gates =
          List.init 60 (fun i ->
              let base = if i mod 2 = 0 then 0 else 8 in
              let a = base + Rng.int rng 4 and b = base + Rng.int rng 4 in
              if a = b then Gate.cx a ((base + ((a + 1 - base) mod 4))) else Gate.cx a b)
        in
        let c = Circuit.create ~n_qubits:16 gates in
        let ml = Mlqls.weighted_cost device c (Mlqls.place device c) in
        let rnd = Mlqls.weighted_cost device c (Placement.random rng device c) in
        check_bool "not worse" true (ml <= rnd));
    test_case "mlqls routes its placement with one SABRE pass at its seed"
      (fun () ->
        let device = Topologies.grid 3 4 in
        let rng = Rng.create 31 in
        let c =
          Random_circuit.uniform rng ~n_qubits:10 ~n_two_qubit:40
            ~single_ratio:0.2
        in
        List.iter
          (fun seed ->
            let options = { Mlqls.seed } in
            let expected =
              Sabre.route
                ~options:
                  { Sabre.default_options with bidirectional_passes = 0; seed }
                ~initial:(Mlqls.place ~options device c)
                device c
            in
            Alcotest.(check string)
              (Printf.sprintf "seed %d" seed)
              (fingerprint expected)
              (fingerprint (Mlqls.route ~options device c)))
          [ 0; 3; 8 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Exact solver                                                        *)
(* ------------------------------------------------------------------ *)

let exact_tests =
  [
    test_case "triangle on a line needs exactly one swap" (fun () ->
        match Exact.minimum_swaps (Topologies.line 4) (triangle ()) with
        | Exact.Optimal { swaps; witness } ->
            check_int "optimal" 1 swaps;
            check_bool "witness valid" true (Verifier.is_valid witness)
        | Exact.Unknown_above _ -> Alcotest.fail "should be solvable");
    test_case "triangle on a ring is swap-free" (fun () ->
        match Exact.minimum_swaps (Topologies.ring 3) (triangle ()) with
        | Exact.Optimal { swaps; _ } -> check_int "optimal" 0 swaps
        | Exact.Unknown_above _ -> Alcotest.fail "should be solvable");
    test_case "empty circuit costs nothing" (fun () ->
        let c = Circuit.create ~n_qubits:3 [ Gate.h 0 ] in
        match Exact.minimum_swaps (Topologies.line 3) c with
        | Exact.Optimal { swaps; witness } ->
            check_int "zero" 0 swaps;
            check_int "h preserved" 1 (List.length (Transpiled.ops witness))
        | Exact.Unknown_above _ -> Alcotest.fail "trivial");
    test_case "check is monotone in the swap budget" (fun () ->
        let device = Topologies.line 4 in
        (* feasible at k implies feasible at any k' >= k, and the witness
           never uses more than the budget *)
        match Exact.check ~swaps:1 device (triangle ()) with
        | Exact.Feasible _ -> (
            match Exact.check ~swaps:3 device (triangle ()) with
            | Exact.Feasible t ->
                check_bool "within budget" true (Transpiled.swap_count t <= 3)
            | _ -> Alcotest.fail "monotonicity broken")
        | _ -> Alcotest.fail "base case");
    test_case "infeasible below the optimum" (fun () ->
        check_bool "0 swaps impossible" true
          (Exact.check ~swaps:0 (Topologies.line 4) (triangle ()) = Exact.Infeasible));
    test_case "unknown on zero budget" (fun () ->
        check_bool "honest" true
          (Exact.check ~node_budget:0 ~swaps:1 (Topologies.line 4) (triangle ())
           = Exact.Unknown));
    test_case "negative swap count rejected" (fun () ->
        check_bool "raises" true
          (try
             ignore (Exact.check ~swaps:(-1) (Topologies.line 3) (triangle ()));
             false
           with Invalid_argument _ -> true));
    test_case "router interface returns the witness" (fun () ->
        let r = Exact.router () in
        let t, report = Router.run_verified r (Topologies.line 4) (triangle ()) in
        check_int "optimal" 1 report.Verifier.swap_count;
        check_bool "ops complete" true (List.length (Transpiled.ops t) = 4));
  ]

let exact_props =
  [
    QCheck.Test.make ~name:"exact agrees with the brute-force oracle" ~count:25
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Rng.create seed in
        let n_gates = 2 + Rng.int rng 6 in
        let c = Random_circuit.uniform rng ~n_qubits:4 ~n_two_qubit:n_gates ~single_ratio:0.0 in
        let device =
          if Rng.bool rng then Topologies.line 4 else Topologies.ring 4
        in
        let brute = Brute.minimum_swaps device c in
        match Exact.minimum_swaps ~max_swaps:6 device c with
        | Exact.Optimal { swaps; witness } ->
            swaps = brute && Verifier.is_valid witness
        | Exact.Unknown_above _ -> false);
    QCheck.Test.make ~name:"exact witness swap count equals the reported optimum"
      ~count:20
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Rng.create seed in
        let c = Random_circuit.uniform rng ~n_qubits:5 ~n_two_qubit:6 ~single_ratio:0.2 in
        let device = Topologies.grid 2 3 in
        match Exact.minimum_swaps ~max_swaps:6 device c with
        | Exact.Optimal { swaps; witness } -> Transpiled.swap_count witness = swaps
        | Exact.Unknown_above _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* OLSQ-style SAT solver                                               *)
(* ------------------------------------------------------------------ *)

let olsq_tests =
  [
    test_case "triangle on a line needs exactly one swap (SAT)" (fun () ->
        match Olsq.minimum_swaps (Topologies.line 4) (triangle ()) with
        | Olsq.Optimal { swaps; witness } ->
            check_int "optimal" 1 swaps;
            check_bool "witness valid" true (Verifier.is_valid witness)
        | Olsq.Unknown_above _ -> Alcotest.fail "should be solvable");
    test_case "swap-free instance solved with zero swaps" (fun () ->
        let c = adjacent_circuit 5 8 in
        match Olsq.minimum_swaps (Topologies.line 5) c with
        | Olsq.Optimal { swaps; _ } -> check_int "zero" 0 swaps
        | Olsq.Unknown_above _ -> Alcotest.fail "trivial");
    test_case "circuit with only 1q gates" (fun () ->
        let c = Circuit.create ~n_qubits:3 [ Gate.h 0; Gate.h 1 ] in
        match Olsq.check ~swaps:0 (Topologies.line 3) c with
        | Olsq.Feasible w -> check_int "gates kept" 2 (List.length (Transpiled.ops w))
        | _ -> Alcotest.fail "trivial");
    test_case "infeasible below the optimum" (fun () ->
        check_bool "unsat" true
          (Olsq.check ~swaps:0 (Topologies.line 4) (triangle ()) = Olsq.Infeasible));
    test_case "conflict budget reports unknown" (fun () ->
        let rng = Rng.create 3 in
        let c = Random_circuit.uniform rng ~n_qubits:9 ~n_two_qubit:30 ~single_ratio:0.0 in
        check_bool "unknown" true
          (Olsq.check ~conflict_budget:0 ~swaps:2 (Topologies.grid 3 3) c
           = Olsq.Unknown));
    test_case "negative swaps rejected" (fun () ->
        check_bool "raises" true
          (try
             ignore (Olsq.check ~swaps:(-1) (Topologies.line 3) (triangle ()));
             false
           with Invalid_argument _ -> true));
  ]

let olsq_props =
  [
    QCheck.Test.make ~name:"SAT solver agrees with the search solver" ~count:25
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Rng.create seed in
        let n_gates = 2 + Rng.int rng 8 in
        let c = Random_circuit.uniform rng ~n_qubits:5 ~n_two_qubit:n_gates ~single_ratio:0.2 in
        let device = Topologies.grid 2 3 in
        match (Olsq.minimum_swaps device c, Exact.minimum_swaps device c) with
        | Olsq.Optimal { swaps = a; witness }, Exact.Optimal { swaps = b; _ } ->
            a = b && Verifier.is_valid witness
        | _ -> false);
    QCheck.Test.make ~name:"SAT solver agrees with the brute-force oracle"
      ~count:15
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Rng.create seed in
        let c = Random_circuit.uniform rng ~n_qubits:4 ~n_two_qubit:6 ~single_ratio:0.0 in
        let device = if Rng.bool rng then Topologies.line 4 else Topologies.ring 4 in
        let brute = Brute.minimum_swaps device c in
        match Olsq.minimum_swaps device c with
        | Olsq.Optimal { swaps; _ } -> swaps = brute
        | Olsq.Unknown_above _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* OLSQ incremental sessions                                           *)
(* ------------------------------------------------------------------ *)

let olsq_incremental_tests =
  [
    test_case "incremental walk matches the fresh walk on the triangle"
      (fun () ->
        let device = Topologies.line 4 and c = triangle () in
        check_bool "fresh: 0 infeasible" true
          (Olsq.check ~swaps:0 device c = Olsq.Infeasible);
        match Olsq.minimum_swaps device c with
        | Olsq.Optimal { swaps; witness } ->
            check_int "one swap" 1 swaps;
            check_bool "witness valid" true (Verifier.is_valid witness)
        | Olsq.Unknown_above _ -> Alcotest.fail "the walk must conclude");
    test_case "session refutes then certifies under assumptions" (fun () ->
        let sess = Olsq.Incremental.create ~max_swaps:3 (Topologies.line 4) (triangle ()) in
        check_int "session bound" 3 (Olsq.Incremental.max_swaps sess);
        check_bool "0 infeasible" true
          (Olsq.Incremental.check sess ~swaps:0 = Olsq.Infeasible);
        (match Olsq.Incremental.check sess ~swaps:1 with
        | Olsq.Feasible w ->
            check_int "one swap" 1 (Transpiled.swap_count w);
            check_bool "valid" true (Verifier.is_valid w)
        | _ -> Alcotest.fail "1 swap must suffice");
        check_int "one solve per bound" 2 (Olsq.Incremental.solves sess);
        check_bool "bound above session max rejected" true
          (try
             ignore (Olsq.Incremental.check sess ~swaps:4);
             false
           with Invalid_argument _ -> true));
    test_case "1q-only witnesses pin the identity initial mapping" (fun () ->
        (* regression: Exact.check used to free-fill an all-(-1) placement
           here while Olsq used Mapping.identity — all three checkers must
           agree on the same witness semantics *)
        let c = Circuit.create ~n_qubits:3 [ Gate.h 0; Gate.h 2; Gate.h 1 ] in
        let device = Topologies.line 4 in
        let ident = Mapping.identity ~n_program:3 ~n_physical:4 in
        let initial_of = function
          | Some w -> Transpiled.initial_mapping w
          | None -> Alcotest.fail "expected Feasible"
        in
        let from_exact =
          match Exact.check ~swaps:0 device c with
          | Exact.Feasible w -> Some w
          | _ -> None
        and from_olsq =
          match Olsq.check ~swaps:0 device c with
          | Olsq.Feasible w -> Some w
          | _ -> None
        and from_session =
          let sess = Olsq.Incremental.create ~max_swaps:2 device c in
          match Olsq.Incremental.check sess ~swaps:0 with
          | Olsq.Feasible w -> Some w
          | _ -> None
        in
        check_bool "exact identity" true
          (Mapping.equal ident (initial_of from_exact));
        check_bool "olsq identity" true
          (Mapping.equal ident (initial_of from_olsq));
        check_bool "session identity" true
          (Mapping.equal ident (initial_of from_session)));
  ]

(* A paper-size instance: Eagle at 3,000 gates. *)
let eagle_instance ~n_swaps =
  let device = Topologies.eagle127 () in
  let config =
    {
      Qubikos.Generator.default_config with
      n_swaps;
      gate_budget = 3000;
      seed = 0;
    }
  in
  (device, (Qubikos.Generator.generate ~config device).Qubikos.Benchmark.circuit)

let olsq_size_tests =
  [
    test_case "the clause count is the encoder's on grid 3x3 and Aspen-4"
      (fun () ->
        List.iter
          (fun (device, seed) ->
            let rng = Rng.create seed in
            let c =
              Random_circuit.uniform rng
                ~n_qubits:(2 + Rng.int rng (Device.n_qubits device - 1))
                ~n_two_qubit:(1 + Rng.int rng 30) ~single_ratio:0.2
            in
            (* k = 0 adds no earliest-block clause, so it pins the
               transition encoding alone *)
            for k = 0 to 3 do
              let sess = Olsq.Incremental.create ~max_swaps:k device c in
              check_int
                (Printf.sprintf "%s seed %d k %d" (Device.name device) seed k)
                (Olsq.Incremental.clauses sess)
                (Olsq.clause_count ~session:true device c ~k)
            done)
          (List.concat_map
             (fun device -> List.init 5 (fun seed -> (device, seed)))
             [ Topologies.grid 3 3; Topologies.aspen4 () ]));
    test_case "an encoding above the limit is refused before it starts"
      (fun () ->
        let device, c = eagle_instance ~n_swaps:5 in
        let fits = Olsq.clause_count ~session:false device c ~k:4 in
        check_bool "Eagle's n = 5 refutation fits (about 21.5 M)" true
          (fits > 21_000_000 && fits < Olsq.clause_limit);
        let session = Olsq.clause_count ~session:true device c ~k:8 in
        check_bool "serve's olsq session does not (about 40 M)" true
          (session > 39_000_000);
        (* The deadline only bounds a guard that fails to fire: the
           encoder polls, and 40 M clauses would take gigabytes. *)
        let refused f =
          match
            Qls_cancel.with_token (Qls_cancel.make ~deadline_ms:2000 ()) f
          with
          | exception Olsq.Too_large { clauses; limit } -> Some (clauses, limit)
          | _ -> None
        in
        let expect what clauses f =
          match refused f with
          | Some (n, limit) ->
              check_int (what ^ ": count") clauses n;
              check_int (what ^ ": limit") Olsq.clause_limit limit
          | None -> Alcotest.fail (what ^ ": not refused")
        in
        expect "session" session (fun () ->
            ignore (Olsq.Incremental.create device c));
        let device, c = eagle_instance ~n_swaps:10 in
        expect "check at n = 10"
          (Olsq.clause_count ~session:false device c ~k:9)
          (fun () -> ignore (Olsq.check ~swaps:9 device c)));
  ]

let olsq_incremental_props =
  [
    QCheck.Test.make
      ~name:"fresh and incremental verdicts agree at every bound" ~count:20
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Rng.create seed in
        let n_gates = 2 + Rng.int rng 6 in
        let c =
          Random_circuit.uniform rng ~n_qubits:4 ~n_two_qubit:n_gates
            ~single_ratio:0.2
        in
        let device =
          if Rng.bool rng then Topologies.line 4 else Topologies.ring 4
        in
        let k_max = 3 in
        let sess = Olsq.Incremental.create ~max_swaps:k_max device c in
        List.for_all
          (fun k ->
            let fresh = Olsq.check ~swaps:k device c in
            let incr = Olsq.Incremental.check sess ~swaps:k in
            match (fresh, incr) with
            | Olsq.Feasible a, Olsq.Feasible b ->
                Verifier.is_valid a && Verifier.is_valid b
                && Transpiled.swap_count a <= k
                && Transpiled.swap_count b <= k
            | Olsq.Infeasible, Olsq.Infeasible -> true
            | _ -> false)
          (List.init (k_max + 1) Fun.id));
    QCheck.Test.make
      ~name:"minimum_swaps is the fresh walk's first feasible bound" ~count:10
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Rng.create seed in
        let c =
          Random_circuit.uniform rng ~n_qubits:4 ~n_two_qubit:(2 + Rng.int rng 5)
            ~single_ratio:0.0
        in
        let device = Topologies.line 4 in
        (* one fresh solve per bound from k = 0, as the SAT bench's
           baseline walks it *)
        let rec first_feasible k =
          match Olsq.check ~swaps:k device c with
          | Olsq.Feasible _ -> Some k
          | Olsq.Infeasible -> first_feasible (k + 1)
          | Olsq.Unknown -> None
        in
        match (Olsq.minimum_swaps device c, first_feasible 0) with
        | Olsq.Optimal { swaps; witness }, Some k ->
            swaps = k && Verifier.is_valid witness
            && Transpiled.swap_count witness = k
        | _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* OLSQ search pins, allocation and tracing                            *)
(* ------------------------------------------------------------------ *)

(* [f ()] with what it added to three obs counters. The counters are
   looked up here, not at module initialisation, so the registration
   test above still sees only what the library registered. *)
let counter_deltas (a, b, c) f =
  let read () =
    let value name = Qls_obs.counter_value (Qls_obs.counter name) in
    (value a, value b, value c)
  in
  let a0, b0, c0 = read () in
  let v = f () in
  let a1, b1, c1 = read () in
  (v, (a1 - a0, b1 - b0, c1 - c0))

(* The (conflicts, learned, restarts) of [f]'s solves. *)
let sat_effort f =
  counter_deltas ("sat.conflicts", "sat.learned", "sat.restarts") f

(* One cell of the paper's section IV-A study shape: 30 gates, capped
   saturation. *)
let study_instance name ~n_swaps ~seed =
  let device = Option.get (Topologies.by_name name) in
  let config =
    {
      Qubikos.Generator.default_config with
      n_swaps;
      gate_budget = 30;
      saturation_cap = 1;
      seed;
    }
  in
  (device, Qubikos.Generator.generate ~config device)

let verdict_name = function
  | Olsq.Feasible _ -> "feasible"
  | Olsq.Infeasible -> "infeasible"
  | Olsq.Unknown -> "unknown"

let check_effort = Alcotest.(check (triple int int int))

(* The refutation of optimum - 1 on the study's four cells (Aspen-4 and
   grid 3x3 at 3 and 4 SWAPs; the seeds of the study benchmark's first
   four ops at seed 1), pinned as (conflicts, learned, restarts).
   Recorded from the list-based solver; a solver rewrite that keeps the
   search keeps every count. *)
let olsq_pins =
  [
    ("aspen4", 3, 269157861, (1232, 1227, 4));
    ("grid3x3", 3, 151149761, (308, 304, 2));
    ("aspen4", 4, 630123623, (1955, 1949, 5));
    ("grid3x3", 4, 993154398, (395, 388, 2));
  ]

let olsq_pin_tests =
  [
    test_case "study refutations take the pinned searches" (fun () ->
        List.iter
          (fun (name, n_swaps, seed, expected) ->
            let device, b = study_instance name ~n_swaps ~seed in
            let what = Printf.sprintf "%s n=%d seed=%d" name n_swaps seed in
            let v, effort =
              sat_effort (fun () ->
                  Olsq.check
                    ~swaps:(b.Qubikos.Benchmark.optimal_swaps - 1)
                    device b.Qubikos.Benchmark.circuit)
            in
            Alcotest.(check string) what "infeasible" (verdict_name v);
            check_effort what expected effort)
          olsq_pins);
    test_case "an incremental walk takes the pinned search" (fun () ->
        (* BENCH_sat.json's grid3x3 / 3 SWAPs / seed 1 entry *)
        let device = Topologies.grid 3 3 in
        let config =
          {
            Qubikos.Generator.default_config with
            n_swaps = 3;
            saturation_cap = 1;
            seed = 1;
          }
        in
        let b = Qubikos.Generator.generate ~config device in
        let r, effort =
          sat_effort (fun () ->
              Olsq.minimum_swaps
                ~max_swaps:(b.Qubikos.Benchmark.optimal_swaps + 1)
                device b.Qubikos.Benchmark.circuit)
        in
        (match r with
        | Olsq.Optimal { swaps; _ } -> check_int "optimum" 3 swaps
        | Olsq.Unknown_above _ -> Alcotest.fail "walk ran out of budget");
        check_effort "walk" (1567, 1566, 7) effort);
    test_case "olsq allocates at most 1,500 words per conflict" (fun () ->
        (* Words allocated on either heap: minor words plus words placed
           directly in the major heap, so moving allocation into large
           arrays cannot pass. The list-based solver allocated about
           4,100 words per conflict here, the array-based one 630 to 760:
           OCaml 5.1's word counters drift with the heap's state across
           minor collections, so the bound leaves room for that. *)
        let device, b = study_instance "aspen4" ~n_swaps:3 ~seed:269157861 in
        check_bool "tracing off" false (Qls_obs.enabled ());
        let words () =
          let minor, promoted, major = Gc.counters () in
          minor +. major -. promoted
        in
        let w0 = words () in
        let v, (conflicts, _, _) =
          sat_effort (fun () ->
              Olsq.check ~swaps:2 device b.Qubikos.Benchmark.circuit)
        in
        let per_conflict = (words () -. w0) /. float_of_int conflicts in
        Alcotest.(check string) "verdict" "infeasible" (verdict_name v);
        check_int "conflicts" 1232 conflicts;
        check_bool
          (Printf.sprintf "%.0f words per conflict <= 1500" per_conflict)
          true
          (per_conflict <= 1500.));
    test_case "a traced Olsq.check spans encode then solve, same search"
      (fun () ->
        let device, b = study_instance "grid3x3" ~n_swaps:3 ~seed:151149761 in
        let swaps = b.Qubikos.Benchmark.optimal_swaps - 1 in
        let circuit = b.Qubikos.Benchmark.circuit in
        let run () =
          let v, effort =
            sat_effort (fun () -> Olsq.check ~swaps device circuit)
          in
          (verdict_name v, effort)
        in
        let plain = run () in
        let path = Filename.temp_file "qls_olsq_trace" ".jsonl" in
        Qls_obs.tracing_to path;
        let traced, session_k =
          Fun.protect ~finally:Qls_obs.shutdown (fun () ->
              let traced = run () in
              let sess = Olsq.Incremental.create ~max_swaps:4 device circuit in
              (traced, Olsq.Incremental.max_swaps sess))
        in
        let records, bad = Qls_obs.load_jsonl path in
        Sys.remove path;
        check_int "trace intact" 0 bad;
        Alcotest.(check (pair string (triple int int int)))
          "tracing changes nothing" plain traced;
        let sat_spans =
          List.filter
            (fun r ->
              r.Qls_obs.r_name = "olsq.encode" || r.Qls_obs.r_name = "sat.solve")
            records
        in
        let attr r key = List.assoc_opt key r.Qls_obs.r_attrs in
        Alcotest.(check (list (pair string (option string))))
          "check encodes at k, solves, then the session encodes at max_swaps"
          [
            ("olsq.encode", Some (string_of_int swaps));
            ("sat.solve", None);
            ("olsq.encode", Some (string_of_int session_k));
          ]
          (List.map (fun r -> (r.Qls_obs.r_name, attr r "k")) sat_spans);
        List.iter
          (fun r ->
            Alcotest.(check string) "site" "sat" r.Qls_obs.r_site;
            if r.Qls_obs.r_name = "olsq.encode" then
              check_bool "vars recorded" true (attr r "vars" <> None))
          sat_spans);
  ]

(* qmap's search work: queue insertions, queue pops and layers that used
   up the node budget. *)
let astar_effort f =
  counter_deltas
    ("router.astar.pushes", "router.astar.pops", "router.astar.exhausted")
    f

(* Two of the Fig. 4-budget qmap goldens (1,500 gates, generator seed 1)
   and the Eagle golden at its paper budget (3,000 gates), with their
   search work pinned as (pushes, pops, exhausted). The first two were
   recorded from the binary-heap search with float f-costs, the Eagle
   one from the flat-slot closed set; a rewrite of the queue or the
   arena that keeps the search keeps every count. *)
let qmap_pins =
  [
    ("sycamore54", 1500, 5, (1_905_319, 108_899, 176));
    ("rochester", 1500, 20, (1_444_467, 305_763, 111));
    ("eagle", 3000, 10, (3_237_008, 404_099, 305));
  ]

let qmap_pin_instance name ~gate_budget ~n_swaps =
  let device = Option.get (Topologies.by_name name) in
  let config =
    {
      Qubikos.Generator.default_config with
      n_swaps;
      gate_budget;
      seed = 1;
    }
  in
  (device, (Qubikos.Generator.generate ~config device).Qubikos.Benchmark.circuit)

(* qmap on random circuits narrower than the device, 300 two-qubit
   gates and about 90 single-qubit ones, under the identity placement
   and a random one:
   the case where a SWAP can move a qubit onto an empty position, which
   no generated instance (they fill the device) reaches. Pinned as
   (swaps, digest) and (pushes, pops, exhausted), recorded from the
   flat-slot closed set. *)
let qmap_narrow_pins =
  [
    ( "rochester", 40, 1, false,
      (1739, "00cbd1f60b3d625fb7a46a907d318f79"), (543_148, 54_061, 54) );
    ( "sycamore54", 30, 2, true,
      (831, "f8b214d7182f2cb72f9ddcd809438a0a"), (576_159, 34_095, 49) );
    ( "eagle", 100, 3, true,
      (2941, "b0db8502b1a75a82ffd04f1a95ebbd05"), (360_036, 19_838, 36) );
  ]

let qmap_narrow_instance name ~n_qubits ~seed ~random_placement =
  let device = Option.get (Topologies.by_name name) in
  let rng = Rng.create seed in
  let circuit =
    Random_circuit.uniform rng ~n_qubits ~n_two_qubit:300 ~single_ratio:0.3
  in
  let initial =
    if random_placement then
      Some
        (Mapping.random rng ~n_program:n_qubits
           ~n_physical:(Device.n_qubits device))
    else None
  in
  (device, circuit, initial)

let qmap_pin_tests =
  [
    test_case "narrower circuits take the pinned routes and searches"
      (fun () ->
        List.iter
          (fun (name, n_qubits, seed, random_placement, (swaps, digest), expected) ->
            let device, circuit, initial =
              qmap_narrow_instance name ~n_qubits ~seed ~random_placement
            in
            let t, effort =
              astar_effort (fun () -> Astar_router.route ?initial device circuit)
            in
            let what = Printf.sprintf "%s q=%d seed=%d" name n_qubits seed in
            check_int (what ^ " swaps") swaps (Transpiled.swap_count t);
            Alcotest.(check string) (what ^ " digest") digest (fingerprint t);
            check_effort what expected effort)
          qmap_narrow_pins);
    test_case "paper-budget routes take the pinned searches" (fun () ->
        List.iter
          (fun (name, gate_budget, n_swaps, expected) ->
            let device, circuit =
              qmap_pin_instance name ~gate_budget ~n_swaps
            in
            let _, effort =
              astar_effort (fun () -> Astar_router.route device circuit)
            in
            check_effort (Printf.sprintf "%s n=%d" name n_swaps) expected effort)
          qmap_pins);
    test_case "a traced route reports the pinned counts on its span" (fun () ->
        let name, gate_budget, n_swaps, expected = List.nth qmap_pins 1 in
        let device, circuit = qmap_pin_instance name ~gate_budget ~n_swaps in
        let path = Filename.temp_file "qls_qmap_trace" ".jsonl" in
        Qls_obs.tracing_to path;
        let _, effort =
          Fun.protect ~finally:Qls_obs.shutdown (fun () ->
              astar_effort (fun () -> Astar_router.route device circuit))
        in
        let records, bad = Qls_obs.load_jsonl path in
        Sys.remove path;
        check_int "trace intact" 0 bad;
        check_effort "counters" expected effort;
        match List.filter (fun r -> r.Qls_obs.r_name = "astar.route") records with
        | [ r ] ->
            let attr key =
              match List.assoc_opt key r.Qls_obs.r_attrs with
              | Some v -> int_of_string v
              | None -> Alcotest.fail ("astar.route lacks " ^ key)
            in
            check_effort "span attrs" expected
              (attr "pushes", attr "pops", attr "exhausted")
        | spans ->
            Alcotest.failf "%d astar.route spans, expected 1" (List.length spans));
  ]

(* ------------------------------------------------------------------ *)
(* Goldens: routed outputs bit-identical to the pre-refactor recordings *)
(* ------------------------------------------------------------------ *)

let golden_tests =
  List.map
    (fun (c : Goldens.case) ->
      test_case
        (Printf.sprintf "%s on %s seed %d%s" c.Goldens.router c.Goldens.device
           c.Goldens.seed
           (if c.Goldens.router_seed = 0 then ""
            else Printf.sprintf " router seed %d" c.Goldens.router_seed))
        (fun () ->
          let device =
            match Qls_arch.Topologies.by_name c.Goldens.device with
            | Some d -> d
            | None -> Alcotest.fail ("unknown device " ^ c.Goldens.device)
          in
          let config =
            {
              Qubikos.Generator.default_config with
              n_swaps = c.Goldens.n_swaps;
              gate_budget = c.Goldens.gate_budget;
              seed = c.Goldens.seed;
            }
          in
          let inst = Qubikos.Generator.generate ~config device in
          let circuit = inst.Qubikos.Benchmark.circuit in
          (* Same dispatch as gen_goldens: registry names, "sabre5" is
             "sabre" with five trials. *)
          let name, trials =
            match c.Goldens.router with
            | "sabre5" -> ("sabre", 5)
            | name -> (name, 1)
          in
          let t =
            match
              Registry.by_name ~sabre_trials:trials ~seed:c.Goldens.router_seed
                name
            with
            | Some r -> r.Router.route device circuit
            | None -> Alcotest.fail ("unknown router " ^ c.Goldens.router)
          in
          check_int "swap count" c.Goldens.swaps (Transpiled.swap_count t);
          Alcotest.(check string) "ops digest" c.Goldens.digest (fingerprint t)))
    Goldens.cases

(* ------------------------------------------------------------------ *)
(* Allocation: qmap's layer search reuses one arena per route.          *)
(* ------------------------------------------------------------------ *)

(* Words allocated on either heap: minor words plus words placed
   directly in the major heap, so moving allocation into large arrays
   cannot pass a gate. *)
let heap_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let allocation_tests =
  [
    test_case "qmap allocates at most 46k minor words per routed gate"
      (fun () ->
        (* The rochester seed-0 golden instance. The allocated-word count
           is deterministic — the same from run to run and under both
           dune profiles — so this bound cannot flake. It is a third of
           what the search allocated when every queued state was a fresh
           tuple over a [Mapping.t]. *)
        let device = Option.get (Qls_arch.Topologies.by_name "rochester") in
        let config =
          {
            Qubikos.Generator.default_config with
            n_swaps = 3;
            gate_budget = 53;
            seed = 0;
          }
        in
        let circuit =
          (Qubikos.Generator.generate ~config device).Qubikos.Benchmark.circuit
        in
        check_bool "tracing off" false (Qls_obs.enabled ());
        let w0 = Gc.minor_words () in
        let t = Astar_router.route device circuit in
        let words = Gc.minor_words () -. w0 in
        let gates =
          List.length
            (List.filter
               (function Transpiled.Gate _ -> true | Transpiled.Swap _ -> false)
               (Transpiled.ops t))
        in
        check_int "every gate routed" (Circuit.length circuit) gates;
        let per_gate = words /. float_of_int gates in
        check_bool
          (Printf.sprintf "%.0f minor words per gate <= 46000" per_gate)
          true (per_gate <= 46_000.));
    test_case "sabre allocates at most 100 words per routing round"
      (fun () ->
        (* A Fig. 4 Sycamore instance at the paper's 1,500-gate budget and
           20 designed SWAPs, routed by one SABRE trial (two refinement
           passes and the output pass). The count covers everything the
           route allocates on either heap — DAGs, op logs, the result —
           divided by its rounds ([router.rounds] delta). Scoring each
           candidate by re-summing the front and extended set through
           fresh lists cost about 1,300 minor words per round here; delta
           scoring on the state's buffers about 230, with a list DAG per
           pass and a list front and op log. Two flat DAGs per route, an
           array front and an int op log cost about 30 minor words and 50
           words on both heaps. Word counts drift with the heap's state on
           OCaml 5.1, so the bound keeps headroom. *)
        let device = Topologies.sycamore54 () in
        let config =
          {
            Qubikos.Generator.default_config with
            n_swaps = 20;
            gate_budget = 1500;
            seed = 1;
          }
        in
        let circuit =
          (Qubikos.Generator.generate ~config device).Qubikos.Benchmark.circuit
        in
        check_bool "tracing off" false (Qls_obs.enabled ());
        let rounds = Qls_obs.counter "router.rounds" in
        let r0 = Qls_obs.counter_value rounds in
        let w0 = heap_words () in
        let t = Sabre.route device circuit in
        let words = heap_words () -. w0 in
        let n_rounds = Qls_obs.counter_value rounds - r0 in
        check_int "rounds" 3071 n_rounds;
        check_int "swaps" 711 (Transpiled.swap_count t);
        let per_round = words /. float_of_int n_rounds in
        check_bool
          (Printf.sprintf "%.0f words per round <= 100" per_round)
          true (per_round <= 100.));
    test_case "an advance that emits gates allocates nothing" (fun () ->
        (* Every gate of the adjacent circuit is executable in place, so
           one advance emits them all, through the in-place front and
           into an op log that already has room for every gate. *)
        let device = Topologies.line 5 in
        let source = adjacent_circuit 5 2000 in
        let st =
          new_state ~device ~source ~initial:(Placement.identity device source)
        in
        let w0 = heap_words () in
        let emitted = Route_state.advance st in
        let words = heap_words () -. w0 in
        check_int "all emitted" 2000 emitted;
        check_bool
          (Printf.sprintf "%.0f words to emit 2000 gates" words)
          true (words < 50.));
    test_case "a blocked round's state queries allocate nothing" (fun () ->
        (* cx 0 4 on a 5-line stays blocked: a blocked [advance], the
           candidate scan and the (kept) extended set all work in the
           state's own arrays. *)
        let device = Topologies.line 5 in
        let source = Circuit.create ~n_qubits:5 [ Gate.cx 0 4; Gate.cx 0 1 ] in
        let st =
          new_state ~device ~source
            ~initial:(Placement.identity device source)
        in
        ignore (Route_state.advance st);
        ignore (Route_state.extended_set st ~size:20);
        let w0 = Gc.minor_words () in
        for _ = 1 to 1000 do
          ignore (Route_state.advance st);
          ignore (Route_state.swap_candidates st);
          ignore (Route_state.extended_set st ~size:20)
        done;
        let words = Gc.minor_words () -. w0 in
        check_bool
          (Printf.sprintf "%.0f minor words over 1000 blocked rounds" words)
          true (words < 100.));
  ]

(* ------------------------------------------------------------------ *)
(* Hot-path invariants: lookahead queries are round-invariant, and the  *)
(* routers build them once per round (the PR 3 hoisting).               *)
(* ------------------------------------------------------------------ *)

let hot_path_props =
  [
    QCheck.Test.make
      ~name:"lookahead queries are invariant across a candidate sweep"
      ~count:40
      QCheck.(int_range 0 100_000)
      (fun seed ->
        (* The hoisting in sabre/tket is sound iff extended_set,
           remaining_layers and swap_candidates return the same values
           when recomputed per candidate as when computed once at the top
           of the round — nothing between candidate evaluations mutates
           the state. *)
        let rng = Rng.create seed in
        let c =
          Random_circuit.uniform rng ~n_qubits:6 ~n_two_qubit:15
            ~single_ratio:0.0
        in
        let device = Topologies.grid 2 3 in
        let st =
          new_state ~device ~source:c
            ~initial:(Placement.identity device c)
        in
        ignore (Route_state.advance st);
        Route_state.finished st
        ||
        let es = extended st ~size:20 in
        let rl = Route_state.remaining_layers st ~max_layers:3 in
        let cands = candidates st in
        List.for_all
          (fun _cand ->
            extended st ~size:20 = es
            && Route_state.remaining_layers st ~max_layers:3 = rl
            && candidates st = cands)
          cands);
  ]

let hot_path_tests =
  [
    test_case "sabre builds the extended set once per round" (fun () ->
        let device = Topologies.aspen4 () in
        let rng = Rng.create 3 in
        let c =
          Random_circuit.uniform rng ~n_qubits:16 ~n_two_qubit:60
            ~single_ratio:0.0
        in
        Route_state.Debug.reset ();
        let t = Sabre.route device c in
        let cnt = Route_state.Debug.counters () in
        check_bool "verifies" true (Verifier.is_valid t);
        let rounds = cnt.Route_state.Debug.swap_candidate_scans in
        check_bool "routing happened" true (rounds > 0);
        check_bool "at most one build per round" true
          (cnt.Route_state.Debug.extended_set_builds <= rounds);
        (* The pre-hoisting code built one extended set per candidate;
           on aspen4 a blocked round offers >= 3 candidates, so the old
           behaviour would violate the bound above by >= 3x. *)
        let st =
          new_state ~device ~source:c
            ~initial:(Placement.identity device c)
        in
        ignore (Route_state.advance st);
        if not (Route_state.finished st) then
          check_bool ">= 3 candidates per blocked round" true
            (Route_state.swap_candidates st >= 3));
    test_case "tket builds remaining layers once per round" (fun () ->
        let device = Topologies.aspen4 () in
        let rng = Rng.create 5 in
        let c =
          Random_circuit.uniform rng ~n_qubits:16 ~n_two_qubit:60
            ~single_ratio:0.0
        in
        Route_state.Debug.reset ();
        let t = Tket_router.route device c in
        let cnt = Route_state.Debug.counters () in
        check_bool "verifies" true (Verifier.is_valid t);
        let rounds = cnt.Route_state.Debug.swap_candidate_scans in
        check_bool "routing happened" true (rounds > 0);
        check_bool "at most one build per round" true
          (cnt.Route_state.Debug.remaining_layers_builds <= rounds));
    test_case "delta-maintained physical front: scans stay below rescans"
      (fun () ->
        (* The physical front is an active set updated by deltas on
           advance/apply_swap; before PR 9 each swap_candidates call
           re-scanned all n_qubits counts. The counter totals entries
           examined, so rounds * n_qubits is the old cost floor and any
           total strictly below it proves the delta path is live. *)
        let device = Topologies.aspen4 () in
        let n_qubits = Device.n_qubits device in
        let rng = Rng.create 3 in
        let c =
          Random_circuit.uniform rng ~n_qubits:16 ~n_two_qubit:60
            ~single_ratio:0.0
        in
        Route_state.Debug.reset ();
        let t = Sabre.route device c in
        let cnt = Route_state.Debug.counters () in
        check_bool "verifies" true (Verifier.is_valid t);
        let rounds = cnt.Route_state.Debug.swap_candidate_scans in
        check_bool "routing happened" true (rounds > 0);
        check_bool "front entries were scanned" true
          (cnt.Route_state.Debug.phys_front_scanned > 0);
        check_bool "below the full-rescan floor" true
          (cnt.Route_state.Debug.phys_front_scanned < rounds * n_qubits));
    test_case "extended set and layers cached across swap-only rounds"
      (fun () ->
        (* cx 0 4 on a 5-line stays blocked through several SWAP rounds:
           the front never changes, so the cache must serve every repeat
           query and only an advance that emits gates may invalidate. *)
        let device = Topologies.line 5 in
        let source =
          Circuit.create ~n_qubits:5 [ Gate.cx 0 4; Gate.cx 0 1 ]
        in
        let st =
          new_state ~device ~source
            ~initial:(Placement.identity device source)
        in
        ignore (Route_state.advance st);
        Route_state.Debug.reset ();
        let builds () =
          (Route_state.Debug.counters ()).Route_state.Debug.extended_set_builds
        in
        let lbuilds () =
          (Route_state.Debug.counters ())
            .Route_state.Debug.remaining_layers_builds
        in
        let es1 = extended st ~size:10 in
        check_int "first query builds" 1 (builds ());
        let es2 = extended st ~size:10 in
        check_int "repeat query cached" 1 (builds ());
        Alcotest.(check (list int)) "cached value identical" es1 es2;
        let rl1 = Route_state.remaining_layers st ~max_layers:3 in
        check_int "layers first query builds" 1 (lbuilds ());
        (* A SWAP round that unblocks nothing must not invalidate. *)
        Route_state.apply_swap st 0 1;
        check_int "swap round: still zero emitted" 0 (Route_state.advance st);
        ignore (extended st ~size:10);
        ignore (Route_state.remaining_layers st ~max_layers:3);
        check_int "swap-only round served from cache" 1 (builds ());
        check_int "layers too" 1 (lbuilds ());
        Alcotest.(check (list (list int)))
          "layers value stable" rl1
          (Route_state.remaining_layers st ~max_layers:3);
        (* A different size is a different key: rebuild. *)
        ignore (extended st ~size:1);
        check_int "size change rebuilds" 2 (builds ());
        (* Progress (advance that emits) invalidates. *)
        Route_state.force_route_first st;
        check_bool "progress made" true (Route_state.advance st > 0);
        ignore (extended st ~size:10);
        check_int "front change rebuilds" 3 (builds ()));
  ]

(* ------------------------------------------------------------------ *)
(* Tie-break: the absolute 1e-12 window gives whole-route determinism  *)
(* ------------------------------------------------------------------ *)

let tie_break_tests =
  List.map
    (fun (name, seed, route) ->
      test_case (name ^ ": absolute tie-break deterministic") (fun () ->
          let device = Topologies.grid 3 3 in
          let rng = Rng.create seed in
          let c =
            Random_circuit.uniform rng ~n_qubits:9 ~n_two_qubit:40
              ~single_ratio:0.0
          in
          let t1 = route device c and t2 = route device c in
          check_bool "same ops" true (Transpiled.ops t1 = Transpiled.ops t2);
          check_bool "verifies" true (Verifier.is_valid t1)))
    [
      ("sabre", 11, fun device c -> Sabre.route device c);
      ("tket", 13, fun device c -> Tket_router.route device c);
    ]

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let registry_tests =
  [
    test_case "paper tools in paper order" (fun () ->
        Alcotest.(check (list string)) "names"
          [ "sabre"; "mlqls"; "qmap"; "tket" ]
          (List.map (fun r -> r.Router.name) (Registry.paper_tools ())));
    test_case "by_name resolves all registered names" (fun () ->
        List.iter
          (fun name ->
            check_bool name true (Option.is_some (Registry.by_name name)))
          Registry.names);
    test_case "by_name aliases" (fun () ->
        check_bool "lightsabre" true (Option.is_some (Registry.by_name "lightsabre"));
        check_bool "ml-qls" true (Option.is_some (Registry.by_name "ml-qls")));
    test_case "by_name rejects unknown" (fun () ->
        check_bool "none" true (Registry.by_name "quantum-magic" = None));
    test_case "registered names" (fun () ->
        Alcotest.(check (list string)) "names"
          [ "sabre"; "sabre-decay"; "mlqls"; "qmap"; "tket"; "exact"; "olsq" ]
          Registry.names);
  ]
  (* A campaign seeds every task through [by_name]; the seed must reach
     the same route a direct call at that seed gives. *)
  @ List.map
      (fun (name, direct) ->
        test_case (Printf.sprintf "by_name carries the seed into %s" name)
          (fun () ->
            let device = Topologies.grid 3 3 in
            let rng = Rng.create 21 in
            let c =
              Random_circuit.uniform rng ~n_qubits:8 ~n_two_qubit:30
                ~single_ratio:0.2
            in
            let routes =
              List.map
                (fun seed ->
                  match Registry.by_name ~sabre_trials:2 ~seed name with
                  | None -> Alcotest.failf "%s not registered" name
                  | Some r ->
                      let fp = fingerprint (r.Router.route device c) in
                      Alcotest.(check string)
                        (Printf.sprintf "seed %d" seed)
                        (fingerprint (direct seed device c))
                        fp;
                      fp)
                [ 0; 5; 9 ]
            in
            (* Otherwise a dropped seed would pass unnoticed. *)
            check_bool "the seed changes the route" true
              (List.length (List.sort_uniq compare routes) > 1)))
      [
        ( "sabre",
          fun seed device c ->
            Sabre.route
              ~options:{ (Sabre.with_trials 2 Sabre.default_options) with seed }
              device c );
        ( "tket",
          fun seed device c ->
            Tket_router.route ~options:{ Tket_router.seed } device c );
        ("mlqls", fun seed device c -> Mlqls.route ~options:{ Mlqls.seed } device c);
      ]

(* ------------------------------------------------------------------ *)
(* Tracing transparency: arming Qls_obs must not change routed output  *)
(* (the instrumentation consumes no RNG and mutates no router state)   *)
(* ------------------------------------------------------------------ *)

let tracing_tests =
  [
    test_case "routed outputs are bit-identical with tracing on and off"
      (fun () ->
        let device = Topologies.grid 3 3 in
        let rng = Rng.create 2024 in
        let circuit =
          Random_circuit.uniform rng ~n_qubits:9 ~n_two_qubit:40
            ~single_ratio:0.2
        in
        let routers =
          [
            ("sabre", fun () -> Sabre.route device circuit);
            ("tket", fun () -> Tket_router.route device circuit);
            ("qmap", fun () -> Astar_router.route device circuit);
            ("mlqls", fun () -> Mlqls.route device circuit);
          ]
        in
        let plain = List.map (fun (n, r) -> (n, fingerprint (r ()))) routers in
        let path = Filename.temp_file "qls_router_trace" ".jsonl" in
        Qls_obs.tracing_to path;
        let traced =
          Fun.protect ~finally:Qls_obs.shutdown (fun () ->
              List.map (fun (n, r) -> (n, fingerprint (r ()))) routers)
        in
        List.iter2
          (fun (name, off) (_, on) ->
            Alcotest.(check string)
              (name ^ " unchanged by tracing") off on)
          plain traced;
        (* And the trace actually recorded router work. *)
        let records, bad = Qls_obs.load_jsonl path in
        Sys.remove path;
        check_int "trace intact" 0 bad;
        let has name = List.exists (fun r -> r.Qls_obs.r_name = name) records in
        check_bool "sabre rounds traced" true (has "sabre.round");
        check_bool "tket rounds traced" true (has "tket.round");
        check_bool "astar layers traced" true (has "astar.layer");
        check_bool "mlqls placement traced" true (has "mlqls.place"));
  ]

(* ------------------------------------------------------------------ *)
(* Cancellation: every round loop polls the ambient token, so an       *)
(* expired deadline stops the route instead of being ignored until it  *)
(* finishes, and so does OLSQ's encoder, per block and per gate.       *)
(* SABRE's is in "parallel trials honour an expired ambient deadline". *)
(* ------------------------------------------------------------------ *)

let cancellation_tests =
  List.map
    (fun (name, route) ->
      test_case (name ^ " honours an expired ambient deadline") (fun () ->
          let device = Topologies.grid 3 3 in
          let rng = Rng.create 78 in
          let c =
            Random_circuit.uniform rng ~n_qubits:9 ~n_two_qubit:60
              ~single_ratio:0.0
          in
          let token = Qls_cancel.make ~deadline_ms:1 () in
          Unix.sleepf 0.005;
          check_bool "Expired raised" true
            (try
               Qls_cancel.with_token token (fun () ->
                   route device c;
                   false)
             with Qls_cancel.Expired _ -> true)))
    [
      ("qmap", fun device c -> ignore (Astar_router.route device c));
      ("tket", fun device c -> ignore (Tket_router.route device c));
      ("mlqls", fun device c -> ignore (Mlqls.route device c));
      ("exact", fun device c -> ignore (Exact.check ~swaps:3 device c));
      ( "olsq's encoder",
        fun device c -> ignore (Olsq.Incremental.create ~max_swaps:5 device c)
      );
    ]

(* ------------------------------------------------------------------ *)
(* The one-pass verifier against the frozen one (verifier_oracle.ml).  *)
(* ------------------------------------------------------------------ *)

(* A SABRE route of a random circuit, then one of: nothing (valid), a
   dropped, duplicated or reordered op, a SWAP on an uncoupled pair, or a
   malformed SWAP (same qubit twice, or off the device). *)
let mutated_route seed mutation =
  let rng = Rng.create seed in
  let device = [| Topologies.line 5; Topologies.grid 3 3; Topologies.aspen4 () |].(seed mod 3) in
  let n = Device.n_qubits device in
  let circuit =
    Random_circuit.uniform rng ~n_qubits:(2 + Rng.int rng (n - 1))
      ~n_two_qubit:(1 + Rng.int rng 40) ~single_ratio:0.3
  in
  let routed =
    Sabre.route ~options:{ Sabre.default_options with trials = 1; seed } device circuit
  in
  let ops = Array.of_list (Transpiled.ops routed) in
  let k = Array.length ops in
  let at = Rng.int rng k and other = Rng.int rng k in
  let ops =
    match mutation with
    | 0 -> ops
    | 1 -> Array.append (Array.sub ops 0 at) (Array.sub ops (at + 1) (k - at - 1))
    | 2 -> Array.concat [ Array.sub ops 0 at; [| ops.(at) |]; Array.sub ops at (k - at) ]
    | 3 ->
        let ops = Array.copy ops in
        let moved = ops.(at) in
        ops.(at) <- ops.(other);
        ops.(other) <- moved;
        ops
    | 4 ->
        let p = Rng.int rng n in
        let p' =
          Option.value ~default:((p + 1) mod n)
            (List.find_opt
               (fun p' -> p' <> p && not (Device.coupled device p p'))
               (List.init n Fun.id))
        in
        Array.concat [ Array.sub ops 0 at; [| Transpiled.Swap (p, p') |]; Array.sub ops at (k - at) ]
    | _ ->
        let p = Rng.int rng n in
        let bad = if Rng.bool rng then Transpiled.Swap (p, p) else Transpiled.Swap (p, n) in
        Array.concat [ Array.sub ops 0 at; [| bad |]; Array.sub ops at (k - at) ]
  in
  Transpiled.create ~source:circuit ~device
    ~initial:(Transpiled.initial_mapping routed) (Array.to_list ops)

let verifier_oracle_props =
  [
    QCheck.Test.make
      ~name:"check returns the frozen verifier's report or violations, in order"
      ~count:400
      QCheck.(pair (int_bound 1_000_000) (int_bound 5))
      (fun (seed, mutation) ->
        let t = mutated_route seed mutation in
        let run check =
          match check t with
          | Ok r -> Ok (r.Verifier.swap_count, r.Verifier.depth)
          | Error vs ->
              Error (List.map (Format.asprintf "%a" Verifier.pp_violation) vs)
          | exception Invalid_argument m -> Error [ "raised " ^ m ]
        in
        let show = function
          | Ok (swaps, depth) -> Printf.sprintf "ok: %d swaps, depth %d" swaps depth
          | Error vs -> String.concat "; " vs
        in
        let expected = run Verifier_oracle.check and got = run Verifier.check in
        if expected <> got then
          QCheck.Test.fail_reportf "mutation %d: expected %s, got %s" mutation
            (show expected) (show got);
        (* the physical circuit, now built on the in-place walk *)
        (match Verifier_oracle.to_physical_circuit t with
        | old ->
            Circuit.equal old (Transpiled.to_physical_circuit t)
        | exception Invalid_argument m -> (
            match Transpiled.to_physical_circuit t with
            | _ -> false
            | exception Invalid_argument m' -> String.equal m m')));
  ]

(* ------------------------------------------------------------------ *)
(* Router.run_verified checks what it was asked to route.              *)
(* ------------------------------------------------------------------ *)

let run_verified_tests =
  let circuit () =
    Random_circuit.uniform (Rng.create 21) ~n_qubits:6 ~n_two_qubit:20
      ~single_ratio:0.0
  in
  let rejects router device c =
    try
      ignore (Router.run_verified router device c);
      false
    with Failure _ -> true
  in
  [
    test_case "a router that routes the reversed circuit is rejected"
      (fun () ->
        (* SABRE's backward refinement pass routes the reversed circuit; a
           router handing that pass back is valid against its own source,
           so the verifier alone accepts it. *)
        let device = Topologies.grid 2 3 in
        let c = circuit () in
        let reversed =
          let g = Circuit.gates c in
          let n = Array.length g in
          Circuit.of_array ~n_qubits:(Circuit.n_qubits c)
            (Array.init n (fun i -> g.(n - 1 - i)))
        in
        check_bool "not a palindrome" false (Circuit.equal c reversed);
        let stub =
          {
            Router.name = "reversed";
            route =
              (fun ?initial device _ -> Sabre.route ?initial device reversed);
          }
        in
        check_bool "valid on its own terms" true
          (Verifier.is_valid (stub.Router.route device c));
        check_bool "run_verified raises" true (rejects stub device c);
        check_int "the honest router still verifies"
          (Transpiled.swap_count (Sabre.route device c))
          (Router.swap_count (Sabre.router ()) device c));
    test_case "a router that routes on another device is rejected"
      (fun () ->
        let c = circuit () in
        let stub =
          {
            Router.name = "elsewhere";
            route =
              (fun ?initial _ circuit ->
                Sabre.route ?initial (Topologies.line 6) circuit);
          }
        in
        check_bool "run_verified raises" true
          (rejects stub (Topologies.grid 2 3) c));
    test_case "a router that routes on a renamed copy of the device is rejected"
      (fun () ->
        (* Same coupling graph under another name: [Device.equal] compares
           both, so the renamed copy is another device. *)
        let device = Topologies.grid 2 3 in
        let copy = Device.create ~name:"grid2x3-copy" (Device.graph device) in
        let stub =
          {
            Router.name = "renamed";
            route =
              (fun ?initial _ circuit -> Sabre.route ?initial copy circuit);
          }
        in
        let c = circuit () in
        check_bool "valid on its own terms" true
          (Verifier.is_valid (stub.Router.route device c));
        check_bool "run_verified raises" true (rejects stub device c));
  ]

let () =
  Alcotest.run "qls_router"
    [
      ("registration", registration_tests);
      ("route-state", route_state_tests);
      ("placement", placement_tests);
      ("router-properties", List.map QCheck_alcotest.to_alcotest router_props);
      ("sabre", sabre_tests);
      ("sabre-parallel", parallel_trial_tests);
      ("closed-set", closed_set_tests);
      ("closed-set-properties", List.map QCheck_alcotest.to_alcotest closed_set_props);
      ("tools", tool_tests);
      ("exact", exact_tests);
      ("exact-properties", List.map QCheck_alcotest.to_alcotest exact_props);
      ("olsq", olsq_tests);
      ("olsq-properties", List.map QCheck_alcotest.to_alcotest olsq_props);
      ("olsq-incremental", olsq_incremental_tests);
      ("olsq-size", olsq_size_tests);
      ( "olsq-incremental-properties",
        List.map QCheck_alcotest.to_alcotest olsq_incremental_props );
      ("olsq-pins", olsq_pin_tests);
      ("qmap-pins", qmap_pin_tests);
      ("goldens", golden_tests);
      ("allocation", allocation_tests);
      ("hot-path", hot_path_tests);
      ("hot-path-properties", List.map QCheck_alcotest.to_alcotest hot_path_props);
      ("tie-break", tie_break_tests);
      ("registry", registry_tests);
      ("cancellation", cancellation_tests);
      ("tracing", tracing_tests);
      ("run-verified", run_verified_tests);
      ( "verifier-oracle",
        List.map QCheck_alcotest.to_alcotest verifier_oracle_props );
    ]
