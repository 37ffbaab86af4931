(* Tests for the qls_circuit library: gates, circuits, interaction graphs,
   dependency DAGs, layering, QASM round-tripping and random circuits. *)

module Gate = Qls_circuit.Gate
module Circuit = Qls_circuit.Circuit
module Interaction = Qls_circuit.Interaction
module Dag = Qls_circuit.Dag
module Layers = Qls_circuit.Layers
module Qasm = Qls_circuit.Qasm
module Random_circuit = Qls_circuit.Random_circuit
module Graph = Qls_graph.Graph
module Rng = Qls_graph.Rng
module Generators = Qls_graph.Generators

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let test_case name f = Alcotest.test_case name `Quick f

(* The running example of the paper's Fig. 1(a): H gates on q0/q1, then
   CNOTs g3(q0,q1), g4(q1,q2), g5(q0,q2). *)
let fig1_circuit () =
  Circuit.create ~n_qubits:3
    [ Gate.h 0; Gate.h 1; Gate.h 2; Gate.cx 0 1; Gate.cx 1 2; Gate.cx 0 2 ]

(* ------------------------------------------------------------------ *)
(* Gate                                                                *)
(* ------------------------------------------------------------------ *)

let gate_tests =
  [
    test_case "constructors and names" (fun () ->
        Alcotest.(check string) "h" "h" (Gate.name (Gate.h 0));
        Alcotest.(check string) "cx" "cx" (Gate.name (Gate.cx 0 1));
        Alcotest.(check string) "swap" "swap" (Gate.name (Gate.swap 0 1)));
    test_case "same-qubit two-qubit gate rejected" (fun () ->
        Alcotest.check_raises "same"
          (Invalid_argument "Gate.g2: both operands are the same qubit")
          (fun () -> ignore (Gate.cx 3 3)));
    test_case "negative qubit rejected" (fun () ->
        Alcotest.check_raises "neg" (Invalid_argument "Gate.g1: negative qubit")
          (fun () -> ignore (Gate.h (-1))));
    test_case "is_two_qubit and is_swap" (fun () ->
        check_bool "h" false (Gate.is_two_qubit (Gate.h 0));
        check_bool "cx" true (Gate.is_two_qubit (Gate.cx 0 1));
        check_bool "cx not swap" false (Gate.is_swap (Gate.cx 0 1));
        check_bool "swap" true (Gate.is_swap (Gate.swap 0 1)));
    test_case "qubits and pair" (fun () ->
        Alcotest.(check (list int)) "g1" [ 4 ] (Gate.qubits (Gate.x 4));
        Alcotest.(check (list int)) "g2" [ 2; 7 ] (Gate.qubits (Gate.cz 2 7));
        Alcotest.(check (pair int int)) "pair" (2, 7) (Gate.pair (Gate.cz 2 7)));
    test_case "pair of single-qubit gate rejected" (fun () ->
        Alcotest.check_raises "pair"
          (Invalid_argument "Gate.pair: single-qubit gate") (fun () ->
            ignore (Gate.pair (Gate.h 0))));
    test_case "acts_on" (fun () ->
        check_bool "yes" true (Gate.acts_on (Gate.cx 1 5) 5);
        check_bool "no" false (Gate.acts_on (Gate.cx 1 5) 2));
    test_case "map_qubits renames" (fun () ->
        let g = Gate.map_qubits (fun q -> q + 10) (Gate.cx 0 1) in
        Alcotest.(check (pair int int)) "renamed" (10, 11) (Gate.pair g));
    test_case "map_qubits collapse rejected" (fun () ->
        Alcotest.check_raises "collapse"
          (Invalid_argument "Gate.g2: both operands are the same qubit")
          (fun () -> ignore (Gate.map_qubits (fun _ -> 0) (Gate.cx 0 1))));
    test_case "equal" (fun () ->
        check_bool "same" true (Gate.equal (Gate.cx 0 1) (Gate.cx 0 1));
        check_bool "orientation matters" false (Gate.equal (Gate.cx 0 1) (Gate.cx 1 0));
        check_bool "kind" false (Gate.equal (Gate.h 0) (Gate.cx 0 1)));
    test_case "to_string" (fun () ->
        Alcotest.(check string) "format" "cx(3,7)" (Gate.to_string (Gate.cx 3 7));
        Alcotest.(check string) "format 1q" "h(2)" (Gate.to_string (Gate.h 2)));
  ]

(* ------------------------------------------------------------------ *)
(* Circuit                                                             *)
(* ------------------------------------------------------------------ *)

let circuit_tests =
  [
    test_case "create validates qubit range" (fun () ->
        Alcotest.check_raises "range"
          (Invalid_argument "Circuit: gate cx(0,3) uses qubit outside [0, 3)")
          (fun () -> ignore (Circuit.create ~n_qubits:3 [ Gate.cx 0 3 ])));
    test_case "counts" (fun () ->
        let c = fig1_circuit () in
        check_int "length" 6 (Circuit.length c);
        check_int "2q" 3 (Circuit.two_qubit_count c);
        check_int "1q" 3 (Circuit.single_qubit_count c));
    test_case "two_qubit_gates indices" (fun () ->
        let c = fig1_circuit () in
        Alcotest.(check (list (pair int (pair int int)))) "indexed"
          [ (3, (0, 1)); (4, (1, 2)); (5, (0, 2)) ]
          (Circuit.two_qubit_gates c));
    test_case "append and gate access" (fun () ->
        let c = Circuit.append (fig1_circuit ()) (Gate.cx 1 0) in
        check_int "length" 7 (Circuit.length c);
        check_bool "last" true (Gate.equal (Gate.cx 1 0) (Circuit.gate c 6)));
    test_case "concat maxes qubit counts" (fun () ->
        let a = Circuit.create ~n_qubits:2 [ Gate.h 0 ] in
        let b = Circuit.create ~n_qubits:5 [ Gate.cx 3 4 ] in
        let c = Circuit.concat a b in
        check_int "qubits" 5 (Circuit.n_qubits c);
        check_int "length" 2 (Circuit.length c));
    test_case "map_qubits" (fun () ->
        let c = Circuit.map_qubits (fun q -> 2 - q) (fig1_circuit ()) ~n_qubits:3 in
        check_bool "reversed gate" true
          (Gate.equal (Gate.cx 2 1) (Circuit.gate c 3)));
    test_case "used_qubits" (fun () ->
        let c = Circuit.create ~n_qubits:10 [ Gate.cx 2 7; Gate.h 4 ] in
        Alcotest.(check (list int)) "used" [ 2; 4; 7 ] (Circuit.used_qubits c));
    test_case "depth of Fig. 1 circuit" (fun () ->
        (* H layer in parallel (depth 1), then three CNOTs forced serial by
           shared qubits: total depth 4. *)
        check_int "depth" 4 (Circuit.depth (fig1_circuit ()));
        check_int "2q depth" 3 (Circuit.two_qubit_depth (fig1_circuit ())));
    test_case "depth ignores parallel gates" (fun () ->
        let c = Circuit.create ~n_qubits:4 [ Gate.cx 0 1; Gate.cx 2 3 ] in
        check_int "parallel" 1 (Circuit.depth c));
    test_case "empty circuit" (fun () ->
        let c = Circuit.create ~n_qubits:0 [] in
        check_int "depth" 0 (Circuit.depth c);
        check_int "length" 0 (Circuit.length c));
    test_case "equal" (fun () ->
        check_bool "equal" true (Circuit.equal (fig1_circuit ()) (fig1_circuit ()));
        check_bool "differs" false
          (Circuit.equal (fig1_circuit ())
             (Circuit.append (fig1_circuit ()) (Gate.h 0))));
  ]

(* ------------------------------------------------------------------ *)
(* Interaction                                                         *)
(* ------------------------------------------------------------------ *)

let interaction_tests =
  [
    test_case "Fig. 1(b): triangle interaction graph" (fun () ->
        let g = Interaction.of_circuit (fig1_circuit ()) in
        check_int "edges" 3 (Graph.n_edges g);
        check_bool "triangle" true
          (Graph.mem_edge g 0 1 && Graph.mem_edge g 1 2 && Graph.mem_edge g 0 2));
    test_case "repeated gates merge into one edge" (fun () ->
        let c = Circuit.create ~n_qubits:2 [ Gate.cx 0 1; Gate.cx 1 0; Gate.cx 0 1 ] in
        check_int "one edge" 1 (Graph.n_edges (Interaction.of_circuit c)));
    test_case "of_slice" (fun () ->
        let c = fig1_circuit () in
        let g = Interaction.of_slice c ~lo:3 ~hi:5 in
        check_int "two edges" 2 (Graph.n_edges g);
        check_bool "no (0,2)" false (Graph.mem_edge g 0 2));
    test_case "of_slice validates range" (fun () ->
        Alcotest.check_raises "range"
          (Invalid_argument "Interaction.of_slice: bad range") (fun () ->
            ignore (Interaction.of_slice (fig1_circuit ()) ~lo:4 ~hi:2)));
    test_case "swap_free: triangle needs a swap on a line" (fun () ->
        (* the paper's Fig. 1 example: the triangle cannot run on the
           4-qubit line without a SWAP *)
        check_bool "line" false
          (Interaction.swap_free (fig1_circuit ()) (Generators.path 4));
        check_bool "ring" true
          (Interaction.swap_free (fig1_circuit ()) (Generators.cycle 3)));
    test_case "swap_free_mapping witness" (fun () ->
        (* The 2x2 grid is C4 — triangle-free — so no witness exists; K4
           contains triangles, so one does. *)
        check_bool "none on C4" true
          (Interaction.swap_free_mapping (fig1_circuit ()) (Generators.grid 2 2) = None);
        match Interaction.swap_free_mapping (fig1_circuit ()) (Generators.complete 4) with
        | None -> Alcotest.fail "expected mapping on K4"
        | Some f ->
            check_int "3 qubits placed" 3 (Array.length f);
            let distinct = List.sort_uniq compare (Array.to_list f) in
            check_int "injective" 3 (List.length distinct));
  ]

(* ------------------------------------------------------------------ *)
(* Dag                                                                 *)
(* ------------------------------------------------------------------ *)

let dag_tests =
  [
    test_case "Fig. 1(c): dependency edges" (fun () ->
        let d = Dag.of_circuit (fig1_circuit ()) in
        check_int "3 gates" 3 (Dag.n_gates d);
        (* vertex 0 = g3(q0,q1), 1 = g4(q1,q2), 2 = g5(q0,q2) *)
        Alcotest.(check (list int)) "g3 -> g4, g5" [ 1; 2 ] (Dag.successors d 0);
        Alcotest.(check (list int)) "g4 -> g5" [ 2 ] (Dag.successors d 1);
        Alcotest.(check (list int)) "g5 preds" [ 0; 1 ] (Dag.predecessors d 2));
    test_case "circuit_index skips single-qubit gates" (fun () ->
        let d = Dag.of_circuit (fig1_circuit ()) in
        check_int "first cx at 3" 3 (Dag.circuit_index d 0);
        Alcotest.(check (pair int int)) "pair" (0, 1) (Dag.pair d 0));
    test_case "front layer" (fun () ->
        let c =
          Circuit.create ~n_qubits:4 [ Gate.cx 0 1; Gate.cx 2 3; Gate.cx 1 2 ]
        in
        let d = Dag.of_circuit c in
        Alcotest.(check (list int)) "two independent" [ 0; 1 ] (Dag.front_layer d));
    test_case "no duplicate arc for repeated pair" (fun () ->
        let c = Circuit.create ~n_qubits:2 [ Gate.cx 0 1; Gate.cx 0 1 ] in
        let d = Dag.of_circuit c in
        Alcotest.(check (list int)) "single arc" [ 1 ] (Dag.successors d 0);
        check_int "indegree" 1 (Dag.in_degree d 1));
    test_case "topological order is a permutation respecting edges" (fun () ->
        let rng = Rng.create 3 in
        let c = Random_circuit.uniform rng ~n_qubits:6 ~n_two_qubit:40 ~single_ratio:0.5 in
        let d = Dag.of_circuit c in
        let order = Dag.topological_order d in
        check_int "length" (Dag.n_gates d) (List.length order);
        let pos = Array.make (Dag.n_gates d) 0 in
        List.iteri (fun i v -> pos.(v) <- i) order;
        for v = 0 to Dag.n_gates d - 1 do
          List.iter
            (fun w -> check_bool "edge order" true (pos.(v) < pos.(w)))
            (Dag.successors d v)
        done);
  ]

let circuit_arb =
  QCheck.make
    ~print:(fun (n, gates) -> Printf.sprintf "%d qubits, %d gates" n (List.length gates))
    QCheck.Gen.(
      sized (fun size ->
          let n = 2 + (size mod 8) in
          let* m = int_bound 30 in
          let gate =
            let* a = int_bound (n - 1) in
            let* b = int_bound (n - 1) in
            return (a, b)
          in
          let* pairs = list_size (return m) gate in
          return (n, List.filter (fun (a, b) -> a <> b) pairs)))

(* Circuits with single-qubit gates mixed in and two-qubit gates that
   often repeat the previous pair, in either orientation: the cases where
   the one-arc rule and the slot order matter. *)
let mixed_circuit_arb =
  QCheck.make ~print:Qasm.to_string
    QCheck.Gen.(
      let* n = int_range 2 8 in
      let* m = int_bound 60 in
      let step =
        let* kind = int_bound 5 in
        let* a = int_bound (n - 1) in
        let* d = int_range 1 (n - 1) in
        let* flip = bool in
        return (kind, a, (a + d) mod n, flip)
      in
      let+ steps = list_size (return m) step in
      (* kind 0: a single-qubit gate; 1-2: the previous pair again;
         3-5: a fresh pair *)
      let last = ref (0, 1) in
      let gate (kind, a, b, flip) =
        if kind = 0 then Gate.h a
        else begin
          let x, y = if kind <= 2 then !last else (a, b) in
          last := (x, y);
          if flip then Gate.cx y x else Gate.cx x y
        end
      in
      Circuit.create ~n_qubits:n (List.map gate steps))

let dag_props =
  [
    QCheck.Test.make ~name:"flat DAG matches the frozen list-based builder"
      ~count:500 mixed_circuit_arb (fun c ->
        let d = Dag.of_circuit c and o = Dag_oracle.of_circuit c in
        let n = Dag.n_gates d in
        n = Dag_oracle.n_gates o
        && Dag.front_layer d = Dag_oracle.front_layer o
        && List.for_all
             (fun v ->
               Dag.successors d v = Dag_oracle.successors o v
               && Dag.predecessors d v = Dag_oracle.predecessors o v
               && Dag.in_degree d v = Dag_oracle.in_degree o v
               && Dag.pair d v = Dag_oracle.pair o v
               && Dag.circuit_index d v = Dag_oracle.circuit_index o v)
             (List.init n Fun.id));
    QCheck.Test.make ~name:"program order is a topological order" ~count:200
      circuit_arb (fun (n, pairs) ->
        let c = Circuit.create ~n_qubits:n (List.map (fun (a, b) -> Gate.cx a b) pairs) in
        let d = Dag.of_circuit c in
        (* every DAG arc goes forward in program order *)
        let ok = ref true in
        for v = 0 to Dag.n_gates d - 1 do
          List.iter (fun w -> if w <= v then ok := false) (Dag.successors d v)
        done;
        !ok);
    QCheck.Test.make ~name:"preds and succs are mutual" ~count:200 circuit_arb
      (fun (n, pairs) ->
        let c = Circuit.create ~n_qubits:n (List.map (fun (a, b) -> Gate.cx a b) pairs) in
        let d = Dag.of_circuit c in
        let ok = ref true in
        for v = 0 to Dag.n_gates d - 1 do
          List.iter
            (fun w -> if not (List.mem v (Dag.predecessors d w)) then ok := false)
            (Dag.successors d v)
        done;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* Layers                                                              *)
(* ------------------------------------------------------------------ *)

let layers_tests =
  [
    test_case "slices of the Fig. 1 circuit" (fun () ->
        Alcotest.(check (list (list (pair int int)))) "serial"
          [ [ (0, 1) ]; [ (1, 2) ]; [ (0, 2) ] ]
          (Layers.slices (fig1_circuit ())));
    test_case "parallel gates share a slice" (fun () ->
        let c =
          Circuit.create ~n_qubits:4 [ Gate.cx 0 1; Gate.cx 2 3; Gate.cx 1 2 ]
        in
        Alcotest.(check (list (list (pair int int)))) "two slices"
          [ [ (0, 1); (2, 3) ]; [ (1, 2) ] ]
          (Layers.slices c));
    test_case "slice count equals two-qubit depth" (fun () ->
        let rng = Rng.create 5 in
        for seed = 0 to 9 do
          ignore seed;
          let c = Random_circuit.uniform rng ~n_qubits:5 ~n_two_qubit:25 ~single_ratio:0.3 in
          check_int "depth" (Circuit.two_qubit_depth c)
            (List.length (Layers.slices c))
        done);
    test_case "layer_of increases along edges" (fun () ->
        let c = fig1_circuit () in
        let d = Dag.of_circuit c in
        let l = Layers.layer_of d in
        Alcotest.(check (array int)) "layers" [| 0; 1; 2 |] l);
  ]

(* ------------------------------------------------------------------ *)
(* Qasm                                                                *)
(* ------------------------------------------------------------------ *)

let check_error_line line text =
  match Qasm.of_string_result text with
  | Error e -> check_int ("line of " ^ e.Qasm.message) line e.Qasm.line
  | Ok _ -> Alcotest.failf "expected a parse error for %S" text

let qasm_tests =
  [
    test_case "emit contains header and gates" (fun () ->
        let s = Qasm.to_string (fig1_circuit ()) in
        let contains needle =
          let nl = String.length needle and hl = String.length s in
          let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
          go 0
        in
        check_bool "version" true (contains "OPENQASM 2.0;");
        check_bool "qreg" true (contains "qreg q[3];");
        check_bool "cx" true (contains "cx q[0],q[1];"));
    test_case "round trip" (fun () ->
        let c = fig1_circuit () in
        check_bool "equal" true (Circuit.equal c (Qasm.of_string (Qasm.to_string c))));
    test_case "parser strips parameters" (fun () ->
        let c =
          Qasm.of_string
            "OPENQASM 2.0;\nqreg q[2];\nrz(pi/4) q[0];\ncx q[0],q[1];\n"
        in
        Alcotest.(check string) "name kept" "rz" (Gate.name (Circuit.gate c 0));
        check_int "gates" 2 (Circuit.length c));
    test_case "parser skips comments, barrier, measure, creg" (fun () ->
        let c =
          Qasm.of_string
            "OPENQASM 2.0;\n// a comment\nqreg q[2];\ncreg c[2];\nbarrier q[0];\nh q[1]; // trailing\nmeasure q[0];\n"
        in
        check_int "one gate" 1 (Circuit.length c));
    test_case "parser handles multiple statements per line" (fun () ->
        let c = Qasm.of_string "OPENQASM 2.0; qreg q[2]; h q[0]; cx q[0],q[1];" in
        check_int "two gates" 2 (Circuit.length c));
    test_case "missing qreg rejected with a typed error" (fun () ->
        match Qasm.of_string_result "OPENQASM 2.0;\nh q[0];\n" with
        | Error e ->
            check_int "no single line applies" 0 e.Qasm.line;
            check_bool "mentions qreg" true
              (let m = e.Qasm.message in
               let rec go i =
                 i + 4 <= String.length m
                 && (String.sub m i 4 = "qreg" || go (i + 1))
               in
               go 0)
        | Ok _ -> Alcotest.fail "expected a parse error");
    test_case "wrong register name rejected with its line number" (fun () ->
        match Qasm.of_string_result "OPENQASM 2.0;\nqreg q[2];\nh r[0];\n" with
        | Error e -> check_int "line" 3 e.Qasm.line
        | Ok _ -> Alcotest.fail "expected a parse error");
    test_case "three-operand gate rejected with its line number" (fun () ->
        match
          Qasm.of_string_result "OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];\n"
        with
        | Error e -> check_int "line" 3 e.Qasm.line
        | Ok _ -> Alcotest.fail "expected a parse error");
    test_case "raising API raises Parse_error, not Failure" (fun () ->
        check_bool "typed exception" true
          (try
             ignore (Qasm.of_string "OPENQASM 2.0;\nqreg q[2];\nh r[0];\n");
             false
           with Qasm.Parse_error e -> e.Qasm.line = 3));
    test_case "unreadable file is a typed error, not an exception" (fun () ->
        match Qasm.read_file_result "/nonexistent/q.qasm" with
        | Error e -> check_int "line 0" 0 e.Qasm.line
        | Ok _ -> Alcotest.fail "expected an error");
    test_case "file round trip" (fun () ->
        let c = fig1_circuit () in
        let path = Filename.temp_file "qubikos" ".qasm" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Qasm.write_file path c;
            check_bool "equal" true (Circuit.equal c (Qasm.read_file path))));
    (* Inputs whose gates [Gate] or [Circuit] reject: the reader reports
       them as typed, line-numbered errors, not as Invalid_argument. *)
    test_case "repeated operand is a line-numbered error" (fun () ->
        check_error_line 3 "OPENQASM 2.0;\nqreg q[4];\ncx q[1],q[1];\n");
    test_case "qubit outside the qreg is a line-numbered error" (fun () ->
        check_error_line 3 "OPENQASM 2.0;\nqreg q[4];\ncx q[0],q[9];\n";
        check_error_line 1 "h q[5];\nqreg q[2];\n");
    test_case "negative qubit index is a line-numbered error" (fun () ->
        check_error_line 3 "OPENQASM 2.0;\nqreg q[4];\nh q[-1];\n");
    test_case "comment after a '/' in gate parameters" (fun () ->
        let c = Qasm.of_string "OPENQASM 2.0;\nqreg q[1];\nrz(pi/4) q[0]; // phase\n" in
        check_int "one gate" 1 (Circuit.length c);
        Alcotest.(check string) "name" "rz" (Gate.name (Circuit.gate c 0)));
  ]

(* Texts for the reader properties: well-formed circuits in varied
   layouts, the same with a few random edits, token soup built from the
   statements that used to leak Invalid_argument, and arbitrary bytes. *)
let gate_names = [| "cx"; "h"; "cz"; "swap"; "x"; "t"; "rz(pi/4)"; "u3(0.1,0.2,0.3)" |]

let qasm_gen =
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let* reg = oneofl [ "q"; "r"; "qr" ] in
    let* header =
      oneofl
        [
          Printf.sprintf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg %s[%d];\n" reg n;
          Printf.sprintf "OPENQASM 2.0; qreg  %s[ %d ]; creg c[%d];\n" reg n n;
          Printf.sprintf "// header\r\nqreg %s [%d];\r\n" reg n;
        ]
    in
    let stmt =
      let* name = oneofa gate_names in
      let* a = int_bound (n - 1) in
      let* b = int_bound (n - 1) in
      let* pad = oneofl [ " "; "  "; " \t" ] in
      let* sep = oneofl [ ","; ", "; " , " ] in
      let* tail = oneofl [ ";\n"; "; "; ";\r\n"; "; // note\n"; ";\n\n"; ";" ] in
      if a = b || name = "h" || name = "x" then
        return (Printf.sprintf "%s%s%s[%d]%s" name pad reg a tail)
      else
        return (Printf.sprintf "%s%s%s[%d]%s%s[%d]%s" name pad reg a sep reg b tail)
    in
    let* other =
      oneofl [ "barrier q[0];\n"; "measure q[0] -> c[0];\n"; "include \"x\";"; "" ]
    in
    let* body = list_size (int_bound 40) stmt in
    return (header ^ String.concat "" body ^ other))

let mutate_gen text =
  QCheck.Gen.(
    let alphabet = "q[]();,/ \n\t-0123456789cxhr" in
    let edit =
      let* kind = int_bound 3 in
      let* at = nat in
      let* c = map (String.get alphabet) (int_bound (String.length alphabet - 1)) in
      return (kind, at, c)
    in
    let* edits = list_size (int_range 1 4) edit in
    return
      (List.fold_left
         (fun s (kind, at, c) ->
           let n = String.length s in
           let i = at mod (n + 1) in
           let before = String.sub s 0 i and after = String.sub s i (n - i) in
           match kind with
           | 0 when i < n -> before ^ String.sub after 1 (n - i - 1)
           | 1 when i < n -> before ^ String.make 1 c ^ String.sub after 1 (n - i - 1)
           | 2 -> before ^ after ^ before
           | _ -> before ^ String.make 1 c ^ after)
         text edits))

let soup_gen =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 30)
         (oneofl
            [
              "OPENQASM 2.0;"; "qreg q[4];"; "qreg q[-2];"; "qreg"; "cx q[1],q[1];";
              "h q[-1];"; "cx q[0],q[9];"; "h q[3];"; "rz(pi/4) q[0];"; "// c"; "/";
              "\n"; ";"; ","; " "; "q[2]"; "["; "]"; "("; ")"; "h r[0];";
              "ccx q[0],q[1],q[2];"; "q[99999999999999999999]"; "0x1f"; "\t";
            ])))

let qasm_text_arb =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(oneof [ qasm_gen; qasm_gen >>= mutate_gen ])

let qasm_any_arb =
  QCheck.make ~print:(Printf.sprintf "%S")
    QCheck.Gen.(
      oneof [ qasm_gen >>= mutate_gen; soup_gen; soup_gen >>= mutate_gen; string ])

(* Lines where the old rule (cut only when the first '/' starts "//")
   and the new one (cut at the first "//") disagree. *)
let comment_rule_changes text =
  List.exists
    (fun line ->
      match String.index_opt line '/' with
      | None -> false
      | Some i ->
          let n = String.length line in
          let rec comment_at j =
            j + 1 < n && ((line.[j] = '/' && line.[j + 1] = '/') || comment_at (j + 1))
          in
          not (i + 1 < n && line.[i + 1] = '/') && comment_at (i + 1))
    (String.split_on_char '\n' text)

let named_circuit_arb =
  QCheck.make
    ~print:(fun c -> Printf.sprintf "%d qubits, %d gates" (Circuit.n_qubits c) (Circuit.length c))
    QCheck.Gen.(
      let* n = oneof [ int_range 2 20; int_range 2 200_000 ] in
      let gate =
        let* name = oneof [ oneofa gate_names; string_size ~gen:printable (int_bound 4) ] in
        let* a = int_bound (n - 1) in
        let* b = int_bound (n - 1) in
        return (if a = b then Gate.g1 name a else Gate.g2 name a b)
      in
      let* gates = list_size (int_bound 50) gate in
      return (Circuit.create ~n_qubits:n gates))

let qasm_props =
  [
    QCheck.Test.make ~name:"random circuits round-trip through QASM" ~count:100
      circuit_arb (fun (n, pairs) ->
        let rng = Rng.create (Hashtbl.hash pairs) in
        let gates =
          List.concat_map
            (fun (a, b) ->
              if Rng.bool rng then [ Gate.cx a b ] else [ Gate.h a; Gate.cx a b ])
            pairs
        in
        let c = Circuit.create ~n_qubits:n gates in
        Circuit.equal c (Qasm.of_string (Qasm.to_string c)));
    QCheck.Test.make ~name:"of_string_result never raises" ~count:3000
      qasm_any_arb (fun text ->
        match Qasm.of_string_result text with Ok _ | Error _ -> true);
    QCheck.Test.make
      ~name:"reader agrees with the frozen parser on generated and mutated texts"
      ~count:3000 ~max_gen:9000 qasm_text_arb (fun text ->
        (* The '//' fix changes these lines on purpose; it has its own
           case above. *)
        QCheck.assume (not (comment_rule_changes text));
        match Qasm_oracle.of_string text with
        | c -> (
            match Qasm.of_string_result text with
            | Ok c' -> Circuit.equal c c'
            | Error _ -> false)
        | exception Qasm.Parse_error e -> Qasm.of_string_result text = Error e
        (* The frozen parser leaked Invalid_argument here; the reader
           owes a typed error (the cases above pin which line). *)
        | exception Invalid_argument _ ->
            Result.is_error (Qasm.of_string_result text));
    QCheck.Test.make ~name:"to_string is byte-identical to the frozen writer"
      ~count:500 named_circuit_arb (fun c ->
        String.equal (Qasm.to_string c) (Qasm_oracle.to_string c));
  ]

(* ------------------------------------------------------------------ *)
(* Random_circuit                                                      *)
(* ------------------------------------------------------------------ *)

let random_circuit_tests =
  [
    test_case "uniform gate counts" (fun () ->
        let rng = Rng.create 1 in
        let c = Random_circuit.uniform rng ~n_qubits:8 ~n_two_qubit:50 ~single_ratio:0.5 in
        check_int "2q" 50 (Circuit.two_qubit_count c);
        check_int "1q" 25 (Circuit.single_qubit_count c));
    test_case "uniform rejects 1 qubit with 2q gates" (fun () ->
        let rng = Rng.create 1 in
        check_bool "raises" true
          (try
             ignore (Random_circuit.uniform rng ~n_qubits:1 ~n_two_qubit:5 ~single_ratio:0.0);
             false
           with Invalid_argument _ -> true));
    test_case "on_interaction_graph draws only graph edges" (fun () ->
        let rng = Rng.create 2 in
        let graph = Generators.cycle 5 in
        let c = Random_circuit.on_interaction_graph rng ~graph ~n_gates:40 in
        let inter = Interaction.of_circuit c in
        Graph.iter_edges
          (fun u v -> check_bool "edge of cycle" true (Graph.mem_edge graph u v))
          inter);
    test_case "layered respects density bounds" (fun () ->
        let rng = Rng.create 3 in
        let c = Random_circuit.layered rng ~n_qubits:10 ~n_layers:5 ~density:1.0 in
        check_int "full matching" 25 (Circuit.two_qubit_count c);
        let c0 = Random_circuit.layered rng ~n_qubits:10 ~n_layers:5 ~density:0.0 in
        check_int "empty" 0 (Circuit.two_qubit_count c0));
    test_case "layered validates density" (fun () ->
        let rng = Rng.create 4 in
        check_bool "raises" true
          (try
             ignore (Random_circuit.layered rng ~n_qubits:4 ~n_layers:2 ~density:1.5);
             false
           with Invalid_argument _ -> true));
  ]

let () =
  Alcotest.run "qls_circuit"
    [
      ("gate", gate_tests);
      ("circuit", circuit_tests);
      ("interaction", interaction_tests);
      ("dag", dag_tests);
      ("dag-properties", List.map QCheck_alcotest.to_alcotest dag_props);
      ("layers", layers_tests);
      ("qasm", qasm_tests);
      ("qasm-properties", List.map QCheck_alcotest.to_alcotest qasm_props);
      ("random-circuit", random_circuit_tests);
    ]
