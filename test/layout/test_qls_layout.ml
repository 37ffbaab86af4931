(* Tests for the qls_layout library: mappings, transpiled circuits, the
   verifier and metrics. *)

module Gate = Qls_circuit.Gate
module Circuit = Qls_circuit.Circuit
module Topologies = Qls_arch.Topologies
module Mapping = Qls_layout.Mapping
module Transpiled = Qls_layout.Transpiled
module Verifier = Qls_layout.Verifier
module Metrics = Qls_layout.Metrics
module Rng = Qls_graph.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let test_case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Mapping                                                             *)
(* ------------------------------------------------------------------ *)

let mapping_tests =
  [
    test_case "identity" (fun () ->
        let m = Mapping.identity ~n_program:3 ~n_physical:5 in
        check_int "phys" 2 (Mapping.phys m 2);
        Alcotest.(check (option int)) "prog" (Some 2) (Mapping.prog m 2);
        Alcotest.(check (option int)) "empty slot" None (Mapping.prog m 4));
    test_case "identity rejects too many program qubits" (fun () ->
        check_bool "raises" true
          (try
             ignore (Mapping.identity ~n_program:5 ~n_physical:3);
             false
           with Invalid_argument _ -> true));
    test_case "of_array validates collisions" (fun () ->
        check_bool "raises" true
          (try
             ignore (Mapping.of_array ~n_physical:4 [| 1; 1 |]);
             false
           with Invalid_argument _ -> true));
    test_case "of_array validates range" (fun () ->
        check_bool "raises" true
          (try
             ignore (Mapping.of_array ~n_physical:4 [| 0; 9 |]);
             false
           with Invalid_argument _ -> true));
    test_case "swap_physical moves both occupants" (fun () ->
        let m = Mapping.of_array ~n_physical:4 [| 0; 1 |] in
        let m' = Mapping.swap_physical m 0 1 in
        check_int "q0" 1 (Mapping.phys m' 0);
        check_int "q1" 0 (Mapping.phys m' 1));
    test_case "swap_physical with an empty slot" (fun () ->
        let m = Mapping.of_array ~n_physical:4 [| 0 |] in
        let m' = Mapping.swap_physical m 0 3 in
        check_int "moved" 3 (Mapping.phys m' 0);
        Alcotest.(check (option int)) "old slot empty" None (Mapping.prog m' 0));
    test_case "swap_physical is an involution" (fun () ->
        let rng = Rng.create 5 in
        let m = Mapping.random rng ~n_program:6 ~n_physical:9 in
        let m' = Mapping.swap_physical (Mapping.swap_physical m 2 7) 2 7 in
        check_bool "identity" true (Mapping.equal m m'));
    test_case "swap_physical rejects identical qubits" (fun () ->
        let m = Mapping.identity ~n_program:2 ~n_physical:4 in
        check_bool "raises" true
          (try
             ignore (Mapping.swap_physical m 1 1);
             false
           with Invalid_argument _ -> true));
    test_case "apply_swaps composes left to right" (fun () ->
        let m = Mapping.of_array ~n_physical:3 [| 0 |] in
        let m' = Mapping.apply_swaps m [ (0, 1); (1, 2) ] in
        check_int "walked" 2 (Mapping.phys m' 0));
    test_case "apply_swaps exchanges two program qubits' slots" (fun () ->
        let m = Mapping.of_array ~n_physical:4 [| 2; 3 |] in
        let m' = Mapping.apply_swaps m [ (2, 3) ] in
        check_int "q0 takes q1's slot" 3 (Mapping.phys m' 0);
        check_int "q1 takes q0's slot" 2 (Mapping.phys m' 1);
        check_int "input unchanged" 2 (Mapping.phys m 0));
    test_case "phys_table agrees with phys" (fun () ->
        let m = Mapping.random (Rng.create 11) ~n_program:5 ~n_physical:9 in
        let table = Mapping.phys_table m in
        check_int "one entry per program qubit" (Mapping.n_program m)
          (Array.length table);
        Array.iteri (fun q p -> check_int "slot" (Mapping.phys m q) p) table);
    test_case "to_array is a copy" (fun () ->
        let m = Mapping.identity ~n_program:3 ~n_physical:3 in
        let a = Mapping.to_array m in
        a.(0) <- 99;
        check_int "unchanged" 0 (Mapping.phys m 0));
    test_case "occupant is prog without the option, -1 when empty" (fun () ->
        let m = Mapping.random (Rng.create 3) ~n_program:5 ~n_physical:8 in
        check_int "n_physical" 8 (Mapping.n_physical m);
        for p = 0 to 7 do
          check_int "occupant"
            (Option.value ~default:(-1) (Mapping.prog m p))
            (Mapping.occupant m p)
        done;
        check_bool "range checked" true
          (try
             ignore (Mapping.occupant m 8);
             false
           with Invalid_argument _ -> true));
    test_case "swap_tables acts as swap_physical on raw tables" (fun () ->
        let rng = Rng.create 17 in
        let m = ref (Mapping.random rng ~n_program:6 ~n_physical:9) in
        let q2p = Mapping.to_array !m in
        let p2q = Array.init 9 (Mapping.occupant !m) in
        for _ = 1 to 40 do
          let p = Rng.int rng 9 in
          let p' = (p + 1 + Rng.int rng 8) mod 9 in
          Mapping.swap_tables ~q2p ~p2q p p';
          m := Mapping.swap_physical !m p p';
          Alcotest.(check (array int)) "q2p" (Mapping.to_array !m) q2p;
          Alcotest.(check (array int)) "p2q"
            (Array.init 9 (Mapping.occupant !m))
            p2q
        done);
    test_case "swap_tables rejects what swap_physical rejects" (fun () ->
        let q2p = [| 0; 1 |] and p2q = [| 0; 1; -1 |] in
        List.iter
          (fun (p, p') ->
            check_bool (Printf.sprintf "(%d, %d)" p p') true
              (try
                 Mapping.swap_tables ~q2p ~p2q p p';
                 false
               with Invalid_argument _ -> true))
          [ (1, 1); (-1, 0); (0, 3) ];
        Alcotest.(check (array int)) "q2p untouched" [| 0; 1 |] q2p;
        Alcotest.(check (array int)) "p2q untouched" [| 0; 1; -1 |] p2q);
    test_case "equal compares contents and the physical size" (fun () ->
        let m = Mapping.of_array ~n_physical:4 [| 2; 0 |] in
        check_bool "same contents" true
          (Mapping.equal m (Mapping.of_array ~n_physical:4 [| 2; 0 |]));
        check_bool "swapped back" true
          (Mapping.equal m (Mapping.apply_swaps m [ (0, 3); (0, 3) ]));
        check_bool "moved" false (Mapping.equal m (Mapping.swap_physical m 0 1));
        check_bool "larger device" false
          (Mapping.equal m (Mapping.of_array ~n_physical:5 [| 2; 0 |]));
        check_bool "more program qubits" false
          (Mapping.equal m (Mapping.of_array ~n_physical:4 [| 2; 0; 1 |])));
  ]

let mapping_props =
  [
    QCheck.Test.make ~name:"phys and prog are mutually inverse" ~count:200
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let rng = Rng.create seed in
        let m = Mapping.random rng ~n_program:7 ~n_physical:12 in
        let ok = ref true in
        for q = 0 to 6 do
          if Mapping.prog m (Mapping.phys m q) <> Some q then ok := false
        done;
        for p = 0 to 11 do
          match Mapping.prog m p with
          | Some q -> if Mapping.phys m q <> p then ok := false
          | None -> ()
        done;
        !ok);
    QCheck.Test.make ~name:"random mappings are injective" ~count:200
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let rng = Rng.create seed in
        let m = Mapping.random rng ~n_program:9 ~n_physical:9 in
        let a = Mapping.to_array m in
        List.length (List.sort_uniq compare (Array.to_list a)) = 9);
  ]

(* ------------------------------------------------------------------ *)
(* Transpiled — the paper's Fig. 1(e) worked example                   *)
(* ------------------------------------------------------------------ *)

(* Fig. 1: the triangle circuit mapped to the 4-qubit line with
   q0->p0, q1->p1, q2->p2 and one SWAP(p1, p2) before the final CNOT. *)
let fig1e () =
  let source =
    Circuit.create ~n_qubits:3
      [ Gate.h 0; Gate.h 1; Gate.cx 0 1; Gate.cx 1 2; Gate.cx 0 2 ]
  in
  let device = Topologies.line 4 in
  let initial = Mapping.of_array ~n_physical:4 [| 0; 1; 2 |] in
  let ops =
    [
      Transpiled.Gate 0; Transpiled.Gate 1; Transpiled.Gate 2; Transpiled.Gate 3;
      Transpiled.Swap (1, 2); Transpiled.Gate 4;
    ]
  in
  Transpiled.create ~source ~device ~initial ops

let transpiled_tests =
  [
    test_case "create validates sizes" (fun () ->
        let source = Circuit.create ~n_qubits:3 [ Gate.h 0 ] in
        let device = Topologies.line 4 in
        check_bool "raises" true
          (try
             ignore
               (Transpiled.create ~source ~device
                  ~initial:(Mapping.identity ~n_program:2 ~n_physical:4)
                  []);
             false
           with Invalid_argument _ -> true));
    test_case "swap accounting" (fun () ->
        let t = fig1e () in
        check_int "one swap" 1 (Transpiled.swap_count t);
        Alcotest.(check (list (pair int int))) "swaps" [ (1, 2) ]
          (List.filter_map
             (function Transpiled.Swap (p, p') -> Some (p, p') | Gate _ -> None)
             (Transpiled.ops t)));
    test_case "mapping_at before and after the swap" (fun () ->
        let t = fig1e () in
        check_int "before" 1 (Mapping.phys (Transpiled.mapping_at t 4) 1);
        check_int "after" 2 (Mapping.phys (Transpiled.mapping_at t 5) 1));
    test_case "the mapping after the last op reflects the swap" (fun () ->
        let t = fig1e () in
        let m = Transpiled.mapping_at t (List.length (Transpiled.ops t)) in
        check_int "q0 stays" 0 (Mapping.phys m 0);
        check_int "q1 moved" 2 (Mapping.phys m 1);
        check_int "q2 moved" 1 (Mapping.phys m 2));
    test_case "a route with no swaps keeps the initial mapping" (fun () ->
        let source = Circuit.create ~n_qubits:2 [ Gate.h 0; Gate.cx 0 1 ] in
        let initial = Mapping.of_array ~n_physical:3 [| 1; 2 |] in
        let t =
          Transpiled.create ~source ~device:(Topologies.line 3) ~initial
            [ Transpiled.Gate 0; Transpiled.Gate 1 ]
        in
        check_int "no swaps" 0 (Transpiled.swap_count t);
        check_bool "unchanged" true (Mapping.equal initial (Transpiled.mapping_at t 2));
        check_bool "cx on p1, p2" true
          (Gate.equal (Gate.cx 1 2)
             (Circuit.gate (Transpiled.to_physical_circuit t) 1)));
    test_case "physical circuit matches Fig. 1(e)" (fun () ->
        let pc = Transpiled.to_physical_circuit (fig1e ()) in
        check_int "qubits" 4 (Circuit.n_qubits pc);
        check_int "gates" 6 (Circuit.length pc);
        check_bool "swap gate present" true (Gate.is_swap (Circuit.gate pc 4));
        (* final CNOT runs on physical (0, 1) after the swap *)
        check_bool "final cnot relocated" true
          (Gate.equal (Gate.cx 0 1) (Circuit.gate pc 5)));
    test_case "depth computed on the physical circuit" (fun () ->
        check_bool "positive" true (Transpiled.depth (fig1e ()) > 0));
    test_case "iter_mapped hands each op the mapping it leaves" (fun () ->
        let t = fig1e () in
        let visited = ref 0 in
        Transpiled.iter_mapped t (fun k op q2p ->
            check_int "in order" !visited k;
            check_bool "the op itself" true (List.nth (Transpiled.ops t) k = op);
            Alcotest.(check (array int)) (Printf.sprintf "after op %d" k)
              (Mapping.to_array (Transpiled.mapping_at t (k + 1)))
              q2p;
            incr visited);
        check_int "every op" 6 !visited);
    test_case "depth equals the physical circuit's depth" (fun () ->
        (* Arbitrary SWAPs between the gates: depth counts them whether or
           not the result verifies. *)
        let device = Topologies.grid 3 3 in
        let edges = Array.of_list (Qls_arch.Device.edges device) in
        for seed = 0 to 19 do
          let rng = Rng.create seed in
          let source =
            Qls_circuit.Random_circuit.uniform rng ~n_qubits:7 ~n_two_qubit:15
              ~single_ratio:0.4
          in
          let ops =
            List.concat
              (List.init (Circuit.length source) (fun i ->
                   if Rng.int rng 3 = 0 then
                     let p, p' = Rng.pick_array rng edges in
                     [ Transpiled.Swap (p, p'); Transpiled.Gate i ]
                   else [ Transpiled.Gate i ]))
          in
          let t =
            Transpiled.create ~source ~device
              ~initial:(Mapping.random rng ~n_program:7 ~n_physical:9)
              ops
          in
          check_int (Printf.sprintf "seed %d" seed)
            (Circuit.depth (Transpiled.to_physical_circuit t))
            (Transpiled.depth t)
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)
(* ------------------------------------------------------------------ *)

let verifier_tests =
  [
    test_case "the Fig. 1(e) result is valid with 1 swap" (fun () ->
        match Verifier.check (fig1e ()) with
        | Error _ -> Alcotest.fail "expected valid"
        | Ok r -> check_int "swap count" 1 r.Verifier.swap_count);
    test_case "missing gate detected" (fun () ->
        let t = fig1e () in
        let ops = List.filteri (fun i _ -> i <> 3) (Transpiled.ops t) in
        let t' =
          Transpiled.create ~source:(Transpiled.source t)
            ~device:(Transpiled.device t)
            ~initial:(Transpiled.initial_mapping t) ops
        in
        match Verifier.check t' with
        | Ok _ -> Alcotest.fail "expected invalid"
        | Error vs ->
            check_bool "missing" true
              (List.exists (function Verifier.Missing_gate 3 -> true | _ -> false) vs));
    test_case "duplicate gate detected" (fun () ->
        let t = fig1e () in
        let ops = Transpiled.ops t @ [ Transpiled.Gate 0 ] in
        let t' =
          Transpiled.create ~source:(Transpiled.source t)
            ~device:(Transpiled.device t)
            ~initial:(Transpiled.initial_mapping t) ops
        in
        match Verifier.check t' with
        | Ok _ -> Alcotest.fail "expected invalid"
        | Error vs ->
            check_bool "dup" true
              (List.exists
                 (function Verifier.Duplicated_gate 0 -> true | _ -> false)
                 vs));
    test_case "order violation detected" (fun () ->
        let source = Circuit.create ~n_qubits:2 [ Gate.h 0; Gate.x 0 ] in
        let device = Topologies.line 2 in
        let t =
          Transpiled.create ~source ~device
            ~initial:(Mapping.identity ~n_program:2 ~n_physical:2)
            [ Transpiled.Gate 1; Transpiled.Gate 0 ]
        in
        match Verifier.check t with
        | Ok _ -> Alcotest.fail "expected invalid"
        | Error vs ->
            check_bool "order" true
              (List.exists
                 (function Verifier.Order_broken _ -> true | _ -> false)
                 vs));
    test_case "uncoupled gate detected" (fun () ->
        let source = Circuit.create ~n_qubits:3 [ Gate.cx 0 2 ] in
        let device = Topologies.line 3 in
        let t =
          Transpiled.create ~source ~device
            ~initial:(Mapping.identity ~n_program:3 ~n_physical:3)
            [ Transpiled.Gate 0 ]
        in
        match Verifier.check t with
        | Ok _ -> Alcotest.fail "expected invalid"
        | Error vs ->
            check_bool "uncoupled" true
              (List.exists
                 (function
                   | Verifier.Uncoupled_gate { phys = 0, 2; _ } -> true
                   | _ -> false)
                 vs));
    test_case "uncoupled swap detected" (fun () ->
        let source = Circuit.create ~n_qubits:2 [] in
        let device = Topologies.line 3 in
        let t =
          Transpiled.create ~source ~device
            ~initial:(Mapping.identity ~n_program:2 ~n_physical:3)
            [ Transpiled.Swap (0, 2) ]
        in
        match Verifier.check t with
        | Ok _ -> Alcotest.fail "expected invalid"
        | Error vs ->
            check_bool "swap" true
              (List.exists
                 (function Verifier.Uncoupled_swap _ -> true | _ -> false)
                 vs));
    test_case "all violations are collected, not just the first" (fun () ->
        let source = Circuit.create ~n_qubits:3 [ Gate.cx 0 2; Gate.h 1 ] in
        let device = Topologies.line 3 in
        let t =
          Transpiled.create ~source ~device
            ~initial:(Mapping.identity ~n_program:3 ~n_physical:3)
            [ Transpiled.Gate 0 ]
        in
        match Verifier.check t with
        | Ok _ -> Alcotest.fail "expected invalid"
        | Error vs -> check_int "two problems" 2 (List.length vs));
    test_case "check_exn raises with a message" (fun () ->
        let source = Circuit.create ~n_qubits:2 [ Gate.h 0 ] in
        let device = Topologies.line 2 in
        let t =
          Transpiled.create ~source ~device
            ~initial:(Mapping.identity ~n_program:2 ~n_physical:2)
            []
        in
        check_bool "raises" true
          (try
             ignore (Verifier.check_exn t);
             false
           with Failure _ -> true));
    test_case "pp_violation output mentions the gate" (fun () ->
        let s =
          Format.asprintf "%a" Verifier.pp_violation (Verifier.Missing_gate 7)
        in
        check_bool "mentions 7" true (String.contains s '7'));
  ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let check_float = Alcotest.(check (float 1e-9))

let metrics_tests =
  [
    test_case "mean" (fun () -> check_float "mean" 2.5 (Metrics.mean [ 1.; 2.; 3.; 4. ]));
    test_case "mean of empty rejected" (fun () ->
        check_bool "raises" true
          (try
             ignore (Metrics.mean []);
             false
           with Invalid_argument _ -> true));
    test_case "mean_opt is None on empty input, else the mean" (fun () ->
        check_bool "empty" true (Metrics.mean_opt [] = None);
        match Metrics.mean_opt [ 1.; 2.; 6. ] with
        | None -> Alcotest.fail "expected a mean"
        | Some m -> check_float "mean" (Metrics.mean [ 1.; 2.; 6. ]) m);
    test_case "swap_ratio matches the paper's definition" (fun () ->
        check_float "ratio" 2.0 (Metrics.swap_ratio ~optimal:5 ~swap_counts:[ 10; 10 ]);
        check_float "optimal tool" 1.0 (Metrics.swap_ratio ~optimal:4 ~swap_counts:[ 4 ]));
    test_case "swap_ratio validates" (fun () ->
        check_bool "optimal 0" true
          (try
             ignore (Metrics.swap_ratio ~optimal:0 ~swap_counts:[ 1 ]);
             false
           with Invalid_argument _ -> true));
    test_case "swap_ratio averages the counts, then divides" (fun () ->
        check_float "mean 3.5 over 2" 1.75
          (Metrics.swap_ratio ~optimal:2 ~swap_counts:[ 2; 3; 4; 5 ]);
        check_bool "empty list rejected" true
          (try
             ignore (Metrics.swap_ratio ~optimal:2 ~swap_counts:[]);
             false
           with Invalid_argument _ -> true));
  ]

let () =
  Alcotest.run "qls_layout"
    [
      ("mapping", mapping_tests);
      ("mapping-properties", List.map QCheck_alcotest.to_alcotest mapping_props);
      ("transpiled", transpiled_tests);
      ("verifier", verifier_tests);
      ("metrics", metrics_tests);
    ]
