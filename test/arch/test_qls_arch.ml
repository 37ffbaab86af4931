(* Tests for the qls_arch library: the device model and the paper's
   topologies. *)

module Device = Qls_arch.Device
module Topologies = Qls_arch.Topologies
module Graph = Qls_graph.Graph
module Rng = Qls_graph.Rng
module Generators = Qls_graph.Generators

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let test_case name f = Alcotest.test_case name `Quick f

let device_tests =
  [
    test_case "create rejects disconnected graphs" (fun () ->
        check_bool "raises" true
          (try
             ignore (Device.create ~name:"bad" (Graph.create 4 [ (0, 1) ]));
             false
           with Invalid_argument _ -> true));
    test_case "create rejects empty graphs" (fun () ->
        check_bool "raises" true
          (try
             ignore (Device.create ~name:"empty" (Graph.empty 0));
             false
           with Invalid_argument _ -> true));
    test_case "accessors" (fun () ->
        let d = Topologies.line 5 in
        Alcotest.(check string) "name" "line5" (Device.name d);
        check_int "qubits" 5 (Device.n_qubits d);
        check_int "edges" 4 (Device.n_edges d);
        check_int "diameter" 4 (Device.diameter d);
        check_int "max degree" 2 (Device.max_degree d));
    test_case "equal compares name and coupling graph" (fun () ->
        let grid = Topologies.grid 3 3 in
        check_bool "rebuilt device" true
          (Device.equal grid (Topologies.grid 3 3));
        check_bool "renamed copy" false
          (Device.equal grid
             (Device.create ~name:"grid3x3-copy" (Device.graph grid)));
        check_bool "same name, another graph" false
          (Device.equal grid
             (Device.create ~name:(Device.name grid)
                (Device.graph (Topologies.ring 9)))));
    test_case "distance and coupled agree" (fun () ->
        let d = Topologies.grid 3 3 in
        for u = 0 to 8 do
          for v = 0 to 8 do
            if u <> v then
              check_bool "coupled iff distance 1"
                (Device.distance d u v = 1)
                (Device.coupled d u v)
          done
        done);
    test_case "neighbors and degree agree" (fun () ->
        let d = Topologies.grid 3 3 in
        for v = 0 to 8 do
          check_int "degree" (List.length (Device.neighbors d v)) (Device.degree d v)
        done);
    test_case "pp mentions the name" (fun () ->
        let s = Format.asprintf "%a" Device.pp (Topologies.line 3) in
        check_bool "has name" true (String.length s > 0 && String.sub s 0 5 = "line3"));
    test_case "distance_matrix and distance_row agree with distance" (fun () ->
        List.iter
          (fun d ->
            let m = Device.distance_matrix d in
            let n = Device.n_qubits d in
            check_int (Device.name d ^ " rows") n (Array.length m);
            for p = 0 to n - 1 do
              let row = Device.distance_row d p in
              for p' = 0 to n - 1 do
                let dist = Device.distance d p p' in
                if m.(p).(p') <> dist || row.(p') <> dist then
                  Alcotest.failf "%s: (%d, %d) is %d, matrix %d, row %d"
                    (Device.name d) p p' dist m.(p).(p') row.(p')
              done
            done)
          (Topologies.all_paper_devices ()));
    test_case "diameter is the largest pairwise distance" (fun () ->
        List.iter
          (fun d ->
            let m = Device.distance_matrix d in
            let largest =
              Array.fold_left (Array.fold_left max) 0 m
            in
            check_int (Device.name d) largest (Device.diameter d))
          (Topologies.ring 7 :: Topologies.all_paper_devices ()));
    test_case "every coupler is listed under both of its qubits" (fun () ->
        (* The routers' SWAP-candidate scan reads incident_edges and
           resolves ids through edge_at; both must describe edges. *)
        List.iter
          (fun d ->
            let seen = Array.make (Device.n_edges d) 0 in
            for p = 0 to Device.n_qubits d - 1 do
              let ids = Device.incident_edges d p in
              check_int "one id per neighbour" (Device.degree d p)
                (Array.length ids);
              Array.iter
                (fun i ->
                  let a, b = Device.edge_at d i in
                  check_bool "touches p" true (a = p || b = p);
                  check_bool "coupled" true (Device.coupled d a b);
                  seen.(i) <- seen.(i) + 1)
                ids
            done;
            check_bool (Device.name d ^ ": each coupler twice") true
              (Array.for_all (( = ) 2) seen))
          (Topologies.all_paper_devices ()));
    test_case "allow_disconnected keeps cross-component pairs unreachable"
      (fun () ->
        let d =
          Device.create ~allow_disconnected:true ~name:"split"
            (Graph.create 5 [ (0, 1); (1, 2); (3, 4) ])
        in
        check_int "within" 2 (Device.distance d 0 2);
        check_int "across" Qls_graph.Apsp.unreachable (Device.distance d 0 4);
        check_int "across, reversed" Qls_graph.Apsp.unreachable
          (Device.distance d 3 1);
        check_bool "diameter refuses" true
          (try
             ignore (Device.diameter d);
             false
           with Invalid_argument _ -> true));
    test_case "max_degree and n_edges agree with the per-qubit views"
      (fun () ->
        List.iter
          (fun d ->
            let degrees = List.init (Device.n_qubits d) (Device.degree d) in
            check_int (Device.name d ^ " max degree")
              (List.fold_left max 0 degrees) (Device.max_degree d);
            check_int (Device.name d ^ " handshake")
              (2 * Device.n_edges d) (List.fold_left ( + ) 0 degrees);
            check_int (Device.name d ^ " edge list")
              (Device.n_edges d) (List.length (Device.edges d)))
          (Topologies.all_paper_devices ()));
    test_case "line distance is the index gap, ring distance wraps" (fun () ->
        let line = Topologies.line 6 and ring = Topologies.ring 6 in
        for p = 0 to 5 do
          for p' = 0 to 5 do
            let gap = abs (p - p') in
            check_int "line" gap (Device.distance line p p');
            check_int "ring" (min gap (6 - gap)) (Device.distance ring p p')
          done
        done);
  ]

let device_props =
  [
    QCheck.Test.make ~name:"distance is a metric on random devices" ~count:50
      QCheck.(int_range 0 1000)
      (fun seed ->
        let rng = Rng.create seed in
        let g = Generators.random_connected rng ~n:10 ~extra_edges:5 in
        let d = Device.create ~name:"rand" g in
        let ok = ref true in
        for u = 0 to 9 do
          if Device.distance d u u <> 0 then ok := false;
          for v = 0 to 9 do
            if Device.distance d u v <> Device.distance d v u then ok := false;
            for w = 0 to 9 do
              if Device.distance d u w > Device.distance d u v + Device.distance d v w
              then ok := false
            done
          done
        done;
        !ok);
  ]

(* The permutations of [d]'s qubits that map couplers onto couplers and
   non-couplers onto non-couplers, counted by backtracking: qubit [i]
   goes to a free slot only if that keeps its relation to every qubit
   already placed. *)
let count_symmetries d =
  let n = Device.n_qubits d in
  let image = Array.make n (-1) and used = Array.make n false in
  let rec place i =
    if i = n then 1
    else begin
      let total = ref 0 in
      for p = 0 to n - 1 do
        let fits = ref (not used.(p)) in
        for j = 0 to i - 1 do
          if !fits && Device.coupled d j i <> Device.coupled d image.(j) p then
            fits := false
        done;
        if !fits then begin
          image.(i) <- p;
          used.(p) <- true;
          total := !total + place (i + 1);
          used.(p) <- false
        end
      done;
      !total
    end
  in
  place 0

(* Published figures for the four paper devices. *)
let topology_tests =
  [
    test_case "ring6 has the 12 symmetries of the hexagon" (fun () ->
        check_int "dihedral" 12 (count_symmetries (Topologies.ring 6)));
    test_case "grid3x3 has the 8 symmetries of the square" (fun () ->
        check_int "dihedral of square" 8 (count_symmetries (Topologies.grid 3 3)));
    test_case "line5 has only its reversal" (fun () ->
        check_int "identity and reversal" 2 (count_symmetries (Topologies.line 5)));
    test_case "aspen4: 16 qubits, 18 couplers, two bridged octagons" (fun () ->
        let d = Topologies.aspen4 () in
        check_int "qubits" 16 (Device.n_qubits d);
        check_int "couplers" 18 (Device.n_edges d);
        check_bool "bridge 1-14" true (Device.coupled d 1 14);
        check_bool "bridge 2-13" true (Device.coupled d 2 13);
        Alcotest.(check (list (pair int int))) "degrees: 12 ring qubits of 2, 4 bridge ends of 3"
          [ (2, 12); (3, 4) ]
          (Graph.degree_histogram (Device.graph d)));
    test_case "sycamore: 54 qubits, 88 couplers, degree <= 4" (fun () ->
        let d = Topologies.sycamore54 () in
        check_int "qubits" 54 (Device.n_qubits d);
        check_int "couplers" 88 (Device.n_edges d);
        check_int "max degree" 4 (Device.max_degree d));
    test_case "rochester: 53 qubits, 58 couplers, two pendant qubits" (fun () ->
        let d = Topologies.rochester () in
        check_int "qubits" 53 (Device.n_qubits d);
        check_int "couplers" 58 (Device.n_edges d);
        let hist = Graph.degree_histogram (Device.graph d) in
        check_int "pendants" 2 (List.assoc 1 hist);
        check_int "max degree" 3 (Device.max_degree d));
    test_case "eagle: 127 qubits, 144 couplers, heavy-hex degrees" (fun () ->
        let d = Topologies.eagle127 () in
        check_int "qubits" 127 (Device.n_qubits d);
        check_int "couplers" 144 (Device.n_edges d);
        check_int "max degree" 3 (Device.max_degree d);
        (* ibm_washington's first row: a chain 0..13 with spacer 14 on
           column 0 connecting to 18. *)
        check_bool "0-1" true (Device.coupled d 0 1);
        check_bool "0-14" true (Device.coupled d 0 14);
        check_bool "14-18" true (Device.coupled d 14 18));
    test_case "falcon: 27 qubits, 28 couplers" (fun () ->
        let d = Topologies.falcon27 () in
        check_int "qubits" 27 (Device.n_qubits d);
        check_int "couplers" 28 (Device.n_edges d);
        check_int "max degree" 3 (Device.max_degree d));
    test_case "heavy-hex family sizes" (fun () ->
        check_int "d=3" 23 (Device.n_qubits (Topologies.heavy_hex ~distance:3));
        check_int "d=5" 65 (Device.n_qubits (Topologies.heavy_hex ~distance:5));
        check_int "d=7 is Eagle" 127 (Device.n_qubits (Topologies.heavy_hex ~distance:7)));
    test_case "heavy-hex validates distance" (fun () ->
        check_bool "even rejected" true
          (try
             ignore (Topologies.heavy_hex ~distance:4);
             false
           with Invalid_argument _ -> true));
    test_case "all_paper_devices order" (fun () ->
        Alcotest.(check (list string)) "paper order"
          [ "aspen4"; "sycamore"; "rochester"; "eagle" ]
          (List.map Device.name (Topologies.all_paper_devices ())));
    test_case "grid is the mesh" (fun () ->
        let d = Topologies.grid 2 4 in
        check_int "qubits" 8 (Device.n_qubits d);
        check_int "edges" 10 (Device.n_edges d));
    test_case "by_name resolves concrete devices" (fun () ->
        List.iter
          (fun (name, qubits) ->
            match Topologies.by_name name with
            | None -> Alcotest.fail ("unresolved: " ^ name)
            | Some d -> check_int name qubits (Device.n_qubits d))
          [
            ("aspen4", 16); ("aspen-4", 16); ("sycamore", 54); ("rochester", 53);
            ("eagle", 127); ("falcon", 27); ("grid3x3", 9);
          ]);
    test_case "by_name resolves parametric devices" (fun () ->
        List.iter
          (fun (name, qubits) ->
            match Topologies.by_name name with
            | None -> Alcotest.fail ("unresolved: " ^ name)
            | Some d -> check_int name qubits (Device.n_qubits d))
          [ ("line12", 12); ("ring8", 8); ("grid4x5", 20); ("heavyhex5", 65) ]);
    test_case "by_name rejects unknown" (fun () ->
        check_bool "nonsense" true (Topologies.by_name "nonsense" = None);
        check_bool "gridXxY" true (Topologies.by_name "gridaxb" = None);
        check_bool "line-" true (Topologies.by_name "lineX" = None);
        check_bool "bad ring" true (Topologies.by_name "ring2" = None));
    test_case "sycamore interior qubits have 4 diagonal neighbours" (fun () ->
        let d = Topologies.sycamore54 () in
        (* qubit (4, 3) = 4*6+3 = 27 is interior *)
        check_int "interior degree" 4 (Device.degree d 27));
    test_case "rochester matches its published edge list spot checks" (fun () ->
        let d = Topologies.rochester () in
        check_bool "0-5" true (Device.coupled d 0 5);
        check_bool "5-9" true (Device.coupled d 5 9);
        check_bool "44-51 pendant" true (Device.coupled d 44 51);
        check_bool "48-52 pendant" true (Device.coupled d 48 52);
        check_bool "no 0-2" false (Device.coupled d 0 2));
  ]

let () =
  Alcotest.run "qls_arch"
    [
      ("device", device_tests);
      ("device-properties", List.map QCheck_alcotest.to_alcotest device_props);
      ("topologies", topology_tests);
    ]
