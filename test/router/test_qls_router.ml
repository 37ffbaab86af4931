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
module Token_swap = Qls_router.Token_swap
module Olsq = Qls_router.Olsq
module Transition_router = Qls_router.Transition_router
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
          Route_state.create ~device ~source
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
          Route_state.create ~device ~source
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
          Route_state.create ~device ~source
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
          Route_state.create ~device ~source
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
          Route_state.create ~device ~source
            ~initial:(Placement.identity device source)
        in
        ignore (Route_state.advance st);
        Alcotest.(check (list (pair int int))) "edges at 0 and 4"
          [ (0, 1); (3, 4) ]
          (List.sort compare (Route_state.swap_candidates st)));
    test_case "extended set follows successors breadth-first" (fun () ->
        let device = Topologies.line 4 in
        let source =
          Circuit.create ~n_qubits:4
            [ Gate.cx 0 2; Gate.cx 0 1; Gate.cx 1 2; Gate.cx 2 3 ]
        in
        let st =
          Route_state.create ~device ~source
            ~initial:(Placement.identity device source)
        in
        ignore (Route_state.advance st);
        (* gate 0 (0,2) is blocked; its successors 1, 2 then 3 follow *)
        Alcotest.(check (list int)) "lookahead order" [ 1; 2; 3 ]
          (Route_state.extended_set st ~size:10);
        Alcotest.(check (list int)) "capped" [ 1 ]
          (Route_state.extended_set st ~size:1));
    test_case "remaining_layers matches ASAP slices initially" (fun () ->
        let rng = Rng.create 5 in
        let source = Random_circuit.uniform rng ~n_qubits:6 ~n_two_qubit:20 ~single_ratio:0.0 in
        let device = Topologies.grid 2 3 in
        let st =
          Route_state.create ~device ~source
            ~initial:(Placement.identity device source)
        in
        let expected = Qls_circuit.Layers.slices_of_dag (Route_state.dag st) in
        Alcotest.(check (list (list int))) "layers" expected
          (Route_state.remaining_layers st ~max_layers:max_int));
    test_case "finish rejects unfinished states" (fun () ->
        let device = Topologies.line 3 in
        let st =
          Route_state.create ~device ~source:(triangle ())
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
          Route_state.create ~device ~source
            ~initial:(Placement.identity device source)
        in
        check_int "nothing done" 0 (Route_state.done_count st);
        check_int "all remaining" 3 (Route_state.remaining st);
        ignore (Route_state.advance st);
        check_int "two done" 2 (Route_state.done_count st);
        check_int "one left" 1 (Route_state.remaining st);
        check_bool "ops recorded" true (List.length (Route_state.ops_so_far st) = 2);
        Alcotest.(check (list (pair int int))) "physical front" [ (0, 2) ]
          (Route_state.front_pairs_physical st);
        check_bool "snapshot is the mapping" true
          (Mapping.equal (Route_state.snapshot_mapping st) (Route_state.mapping st)));
    test_case "force_route_first unblocks the earliest gate" (fun () ->
        let device = Topologies.line 5 in
        let source = Circuit.create ~n_qubits:5 [ Gate.cx 0 4 ] in
        let st =
          Route_state.create ~device ~source
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
               (Route_state.create ~device ~source
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
          Route_state.create ~device ~source
            ~initial:(Placement.identity device source)
        in
        ignore (Route_state.advance st);
        let t = Route_state.finish st in
        check_int "valid, no swaps" 0 (Verifier.check_exn t).Verifier.swap_count;
        check_int "all gates present" 6 (List.length (Transpiled.ops t)));
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
    Transition_router.router ();
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
        rejects "NaN extended_set_weight"
          { Sabre.default_options with Sabre.extended_set_weight = Float.nan };
        rejects "negative extended_set_weight"
          { Sabre.default_options with Sabre.extended_set_weight = -0.5 };
        rejects "NaN decay_increment"
          { Sabre.default_options with Sabre.decay_increment = Float.nan };
        rejects "negative decay_increment"
          { Sabre.default_options with Sabre.decay_increment = -1e-3 };
        rejects "NaN lookahead_decay"
          { Sabre.default_options with Sabre.lookahead_decay = Some Float.nan };
        rejects "negative lookahead_decay"
          { Sabre.default_options with Sabre.lookahead_decay = Some (-0.7) };
        rejects "zero decay_reset_interval"
          { Sabre.default_options with Sabre.decay_reset_interval = 0 };
        rejects "negative extended_set_size"
          { Sabre.default_options with Sabre.extended_set_size = -1 };
        (* route_traced shares the validation. *)
        check_bool "route_traced rejects too" true
          (try
             ignore
               (Sabre.route_traced
                  ~options:
                    {
                      Sabre.default_options with
                      Sabre.extended_set_weight = Float.nan;
                    }
                  device c);
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
            ~options:{ Astar_router.default_options with node_budget = 0 }
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
(* OLSQ incremental sessions + portfolio                               *)
(* ------------------------------------------------------------------ *)

let olsq_incremental_tests =
  [
    test_case "incremental walk matches the fresh walk on the triangle"
      (fun () ->
        let device = Topologies.line 4 and c = triangle () in
        match
          ( Olsq.minimum_swaps ~mode:`Incremental device c,
            Olsq.minimum_swaps ~mode:`Fresh device c )
        with
        | Olsq.Optimal { swaps = a; witness }, Olsq.Optimal { swaps = b; _ } ->
            check_int "same optimum" a b;
            check_int "one swap" 1 a;
            check_bool "witness valid" true (Verifier.is_valid witness)
        | _ -> Alcotest.fail "both walks must conclude");
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
    test_case "portfolio race agrees with the single-config verdict"
      (fun () ->
        let device = Topologies.line 4 and c = triangle () in
        let r = Olsq.race_check ~seeds:[ 0; 1; 2 ] ~swaps:0 device c in
        check_bool "raced verdict" true (r.Olsq.value = Olsq.Infeasible);
        check_int "raced count" 3 r.Olsq.raced;
        check_bool "winner from the seed list" true
          (List.mem r.Olsq.winner_seed [ 0; 1; 2 ]);
        check_bool "cancelled bounded" true
          (r.Olsq.cancelled >= 0 && r.Olsq.cancelled < 3);
        match Olsq.race_minimum_swaps ~seeds:[ 0; 1 ] device c with
        | { Olsq.value = Olsq.Optimal { swaps; _ }; _ } ->
            check_int "raced optimum" 1 swaps
        | _ -> Alcotest.fail "raced walk must conclude");
    test_case "empty portfolio rejected" (fun () ->
        check_bool "raises" true
          (try
             ignore
               (Olsq.race_check ~seeds:[] ~swaps:0 (Topologies.line 4)
                  (triangle ()));
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
      ~name:"portfolio optimum equals the single-config optimum" ~count:10
      QCheck.(int_range 0 100_000)
      (fun seed ->
        let rng = Rng.create seed in
        let c =
          Random_circuit.uniform rng ~n_qubits:4 ~n_two_qubit:(2 + Rng.int rng 5)
            ~single_ratio:0.0
        in
        let device = Topologies.line 4 in
        let raced = Olsq.race_minimum_swaps ~seeds:[ 0; 1; 2 ] device c in
        match (raced.Olsq.value, Olsq.minimum_swaps device c) with
        | Olsq.Optimal { swaps = a; _ }, Olsq.Optimal { swaps = b; _ } -> a = b
        | _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Token swapping                                                      *)
(* ------------------------------------------------------------------ *)

let token_swap_tests =
  [
    test_case "already satisfied targets need no swaps" (fun () ->
        let device = Topologies.grid 3 3 in
        let m = Mapping.identity ~n_program:9 ~n_physical:9 in
        let target q = Token_swap.Fixed q in
        Alcotest.(check (list (pair int int))) "empty" []
          (Token_swap.route device ~current:m ~target));
    test_case "routes a transposition on a line" (fun () ->
        let device = Topologies.line 4 in
        let m = Mapping.identity ~n_program:4 ~n_physical:4 in
        let target q =
          if q = 0 then Token_swap.Fixed 1
          else if q = 1 then Token_swap.Fixed 0
          else Token_swap.Free
        in
        let swaps = Token_swap.route device ~current:m ~target in
        let m' = Token_swap.apply device m swaps in
        check_int "q0" 1 (Mapping.phys m' 0);
        check_int "q1" 0 (Mapping.phys m' 1);
        check_int "one swap" 1 (List.length swaps));
    test_case "routes across empty slots" (fun () ->
        let device = Topologies.line 5 in
        let m = Mapping.of_array ~n_physical:5 [| 0; 1 |] in
        let target q = if q = 0 then Token_swap.Fixed 4 else Token_swap.Free in
        let swaps = Token_swap.route device ~current:m ~target in
        let m' = Token_swap.apply device m swaps in
        check_int "q0 at the end" 4 (Mapping.phys m' 0));
    test_case "rejects colliding targets" (fun () ->
        let device = Topologies.line 3 in
        let m = Mapping.identity ~n_program:3 ~n_physical:3 in
        check_bool "raises" true
          (try
             ignore
               (Token_swap.route device ~current:m ~target:(fun _ ->
                    Token_swap.Fixed 1));
             false
           with Invalid_argument _ -> true));
    test_case "optimal finds the 3-cycle rotation on a triangle" (fun () ->
        let device = Topologies.ring 3 in
        let m = Mapping.identity ~n_program:3 ~n_physical:3 in
        let target q = Token_swap.Fixed ((q + 1) mod 3) in
        match Token_swap.optimal device ~current:m ~target with
        | None -> Alcotest.fail "solvable"
        | Some swaps -> check_int "two swaps" 2 (List.length swaps));
  ]

let token_swap_props =
  [
    QCheck.Test.make ~name:"token swapping always reaches the target" ~count:100
      QCheck.(pair (int_range 0 10_000) (int_range 0 2))
      (fun (seed, dev_choice) ->
        let device =
          match dev_choice with
          | 0 -> Topologies.grid 3 3
          | 1 -> Topologies.line 7
          | _ -> Topologies.aspen4 ()
        in
        let n = Device.n_qubits device in
        let rng = Rng.create seed in
        let n_prog = max 1 (n - Rng.int rng 3) in
        let current = Mapping.random rng ~n_program:n_prog ~n_physical:n in
        (* a random injective partial target *)
        let perm = Rng.permutation rng n in
        let target q = if q mod 2 = 0 then Token_swap.Fixed perm.(q) else Token_swap.Free in
        let swaps = Token_swap.route device ~current ~target in
        let final = Token_swap.apply device current swaps in
        Token_swap.count_misplaced final ~target = 0);
    QCheck.Test.make ~name:"greedy is never better than optimal" ~count:30
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let device = Topologies.line 5 in
        let rng = Rng.create seed in
        let current = Mapping.random rng ~n_program:5 ~n_physical:5 in
        let perm = Rng.permutation rng 5 in
        let target q = Token_swap.Fixed perm.(q) in
        let greedy = Token_swap.route device ~current ~target in
        match Token_swap.optimal ~max_swaps:12 device ~current ~target with
        | None -> false
        | Some best -> List.length best <= List.length greedy);
  ]

(* ------------------------------------------------------------------ *)
(* Goldens: routed outputs bit-identical to the pre-refactor recordings *)
(* ------------------------------------------------------------------ *)

let golden_tests =
  List.map
    (fun (c : Goldens.case) ->
      test_case
        (Printf.sprintf "%s on %s seed %d" c.Goldens.router c.Goldens.device
           c.Goldens.seed)
        (fun () ->
          let device =
            match Qls_arch.Topologies.by_name c.Goldens.device with
            | Some d -> d
            | None -> Alcotest.fail ("unknown device " ^ c.Goldens.device)
          in
          let config =
            {
              Qubikos.Generator.default_config with
              n_swaps = 3;
              gate_budget = c.Goldens.gate_budget;
              seed = c.Goldens.seed;
            }
          in
          let inst = Qubikos.Generator.generate ~config device in
          let circuit = inst.Qubikos.Benchmark.circuit in
          let t =
            match c.Goldens.router with
            | "sabre" -> Sabre.route device circuit
            | "tket" -> Tket_router.route device circuit
            | "qmap" -> Astar_router.route device circuit
            | r -> Alcotest.fail ("unknown router " ^ r)
          in
          check_int "swap count" c.Goldens.swaps (Transpiled.swap_count t);
          Alcotest.(check string) "ops digest" c.Goldens.digest (fingerprint t)))
    Goldens.cases

(* ------------------------------------------------------------------ *)
(* Allocation: qmap's layer search reuses one arena per route.          *)
(* ------------------------------------------------------------------ *)

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
          Route_state.create ~device ~source:c
            ~initial:(Placement.identity device c)
        in
        ignore (Route_state.advance st);
        Route_state.finished st
        ||
        let es = Route_state.extended_set st ~size:20 in
        let rl = Route_state.remaining_layers st ~max_layers:3 in
        let cands = Route_state.swap_candidates st in
        List.for_all
          (fun _cand ->
            Route_state.extended_set st ~size:20 = es
            && Route_state.remaining_layers st ~max_layers:3 = rl
            && Route_state.swap_candidates st = cands)
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
          Route_state.create ~device ~source:c
            ~initial:(Placement.identity device c)
        in
        ignore (Route_state.advance st);
        if not (Route_state.finished st) then
          check_bool ">= 3 candidates per blocked round" true
            (List.length (Route_state.swap_candidates st) >= 3));
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
          Route_state.create ~device ~source
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
        let es1 = Route_state.extended_set st ~size:10 in
        check_int "first query builds" 1 (builds ());
        let es2 = Route_state.extended_set st ~size:10 in
        check_int "repeat query cached" 1 (builds ());
        Alcotest.(check (list int)) "cached value identical" es1 es2;
        let rl1 = Route_state.remaining_layers st ~max_layers:3 in
        check_int "layers first query builds" 1 (lbuilds ());
        (* A SWAP round that unblocks nothing must not invalidate. *)
        Route_state.apply_swap st 0 1;
        check_int "swap round: still zero emitted" 0 (Route_state.advance st);
        ignore (Route_state.extended_set st ~size:10);
        ignore (Route_state.remaining_layers st ~max_layers:3);
        check_int "swap-only round served from cache" 1 (builds ());
        check_int "layers too" 1 (lbuilds ());
        Alcotest.(check (list (list int)))
          "layers value stable" rl1
          (Route_state.remaining_layers st ~max_layers:3);
        (* A different size is a different key: rebuild. *)
        ignore (Route_state.extended_set st ~size:1);
        check_int "size change rebuilds" 2 (builds ());
        (* Progress (advance that emits) invalidates. *)
        Route_state.force_route_first st;
        check_bool "progress made" true (Route_state.advance st > 0);
        ignore (Route_state.extended_set st ~size:10);
        check_int "front change rebuilds" 3 (builds ()));
  ]

(* ------------------------------------------------------------------ *)
(* Tie-break epsilon modes                                             *)
(* ------------------------------------------------------------------ *)

let tie_break_tests =
  [
    test_case "sabre: both tie-break modes deterministic, default absolute"
      (fun () ->
        check_bool "default is absolute" true
          (not Sabre.default_options.Sabre.relative_tie_break);
        let device = Topologies.grid 3 3 in
        let rng = Rng.create 11 in
        let c =
          Random_circuit.uniform rng ~n_qubits:9 ~n_two_qubit:40
            ~single_ratio:0.0
        in
        let route opts = Sabre.route ~options:opts device c in
        let abs1 = route Sabre.default_options
        and abs2 = route Sabre.default_options in
        let rel_opts =
          { Sabre.default_options with Sabre.relative_tie_break = true }
        in
        let rel1 = route rel_opts and rel2 = route rel_opts in
        check_bool "absolute mode deterministic" true
          (Transpiled.ops abs1 = Transpiled.ops abs2);
        check_bool "relative mode deterministic" true
          (Transpiled.ops rel1 = Transpiled.ops rel2);
        check_bool "absolute verifies" true (Verifier.is_valid abs1);
        check_bool "relative verifies" true (Verifier.is_valid rel1));
    test_case "sabre: both modes solve Fig. 1 optimally" (fun () ->
        let device = Topologies.line 4 in
        let swaps opts =
          (Verifier.check_exn
             (Sabre.route ~options:(Sabre.with_trials 8 opts) device
                (triangle ())))
            .Verifier.swap_count
        in
        check_int "absolute" 1 (swaps Sabre.default_options);
        check_int "relative" 1
          (swaps { Sabre.default_options with Sabre.relative_tie_break = true }));
    test_case "tket: both tie-break modes deterministic, default absolute"
      (fun () ->
        check_bool "default is absolute" true
          (not Tket_router.default_options.Tket_router.relative_tie_break);
        let device = Topologies.grid 3 3 in
        let rng = Rng.create 13 in
        let c =
          Random_circuit.uniform rng ~n_qubits:9 ~n_two_qubit:40
            ~single_ratio:0.0
        in
        let route opts = Tket_router.route ~options:opts device c in
        let abs1 = route Tket_router.default_options
        and abs2 = route Tket_router.default_options in
        let rel_opts =
          {
            Tket_router.default_options with
            Tket_router.relative_tie_break = true;
          }
        in
        let rel1 = route rel_opts and rel2 = route rel_opts in
        check_bool "absolute mode deterministic" true
          (Transpiled.ops abs1 = Transpiled.ops abs2);
        check_bool "relative mode deterministic" true
          (Transpiled.ops rel1 = Transpiled.ops rel2);
        check_bool "absolute verifies" true (Verifier.is_valid abs1);
        check_bool "relative verifies" true (Verifier.is_valid rel1));
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
(* Cancellation: round loops must poll the ambient token. Regression   *)
(* for the transition router, whose routing loop had no checkpoint —   *)
(* an expired deadline was silently ignored until the route finished.  *)
(* ------------------------------------------------------------------ *)

let cancellation_tests =
  [
    test_case "transition router honours an expired ambient deadline"
      (fun () ->
        let device = Topologies.grid 3 3 in
        let rng = Rng.create 77 in
        let c =
          Random_circuit.uniform rng ~n_qubits:9 ~n_two_qubit:60
            ~single_ratio:0.0
        in
        let token = Qls_cancel.make ~deadline_ms:1 () in
        Unix.sleepf 0.005;
        check_bool "Expired raised from the round loop" true
          (try
             Qls_cancel.with_token token (fun () ->
                 ignore (Transition_router.route device c);
                 false)
           with Qls_cancel.Expired _ -> true));
    test_case "qmap honours an expired deadline mid-search" (fun () ->
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
                 ignore (Astar_router.route device c);
                 false)
           with Qls_cancel.Expired _ -> true));
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
      ( "olsq-incremental-properties",
        List.map QCheck_alcotest.to_alcotest olsq_incremental_props );
      ("token-swap", token_swap_tests);
      ("token-swap-properties", List.map QCheck_alcotest.to_alcotest token_swap_props);
      ("goldens", golden_tests);
      ("allocation", allocation_tests);
      ("hot-path", hot_path_tests);
      ("hot-path-properties", List.map QCheck_alcotest.to_alcotest hot_path_props);
      ("tie-break", tie_break_tests);
      ("registry", registry_tests);
      ("cancellation", cancellation_tests);
      ("tracing", tracing_tests);
    ]
