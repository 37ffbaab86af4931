(* Tests for the qls_graph library: RNG, graphs, BFS, APSP, priority
   queue, VF2 and generators. *)

module Rng = Qls_graph.Rng
module Graph = Qls_graph.Graph
module Bfs = Qls_graph.Bfs
module Apsp = Qls_graph.Apsp
module Pqueue = Qls_graph.Pqueue
module Vf2 = Qls_graph.Vf2
module Generators = Qls_graph.Generators

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_case name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let rng_tests =
  [
    test_case "same seed, same stream" (fun () ->
        let a = Rng.create 42 and b = Rng.create 42 in
        for _ = 1 to 100 do
          Alcotest.(check int64) "bits64" (Rng.bits64 a) (Rng.bits64 b)
        done);
    test_case "different seeds differ" (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        let same = ref true in
        for _ = 1 to 10 do
          if Rng.bits64 a <> Rng.bits64 b then same := false
        done;
        check_bool "streams differ" false !same);
    test_case "split decorrelates" (fun () ->
        let a = Rng.create 9 in
        let b = Rng.split a in
        check_bool "split differs from parent" true (Rng.bits64 a <> Rng.bits64 b));
    test_case "split is deterministic" (fun () ->
        let a = Rng.split (Rng.create 7) and b = Rng.split (Rng.create 7) in
        for _ = 1 to 20 do
          Alcotest.(check int64) "equal children" (Rng.bits64 a) (Rng.bits64 b)
        done);
    test_case "int bound validation" (fun () ->
        let rng = Rng.create 0 in
        Alcotest.check_raises "zero bound"
          (Invalid_argument "Rng.int: bound must be positive") (fun () ->
            ignore (Rng.int rng 0)));
    test_case "int respects bound" (fun () ->
        let rng = Rng.create 3 in
        for _ = 1 to 1000 do
          let v = Rng.int rng 17 in
          check_bool "in range" true (v >= 0 && v < 17)
        done);
    test_case "int bound 1 is constant" (fun () ->
        let rng = Rng.create 5 in
        for _ = 1 to 10 do
          check_int "always 0" 0 (Rng.int rng 1)
        done);
    test_case "float respects bound" (fun () ->
        let rng = Rng.create 11 in
        for _ = 1 to 1000 do
          let v = Rng.float rng 2.5 in
          check_bool "in range" true (v >= 0.0 && v < 2.5)
        done);
    test_case "pick empty rejected" (fun () ->
        let rng = Rng.create 0 in
        Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list")
          (fun () -> ignore (Rng.pick rng [])));
    test_case "pick singleton" (fun () ->
        let rng = Rng.create 0 in
        check_int "only element" 99 (Rng.pick rng [ 99 ]));
    test_case "permutation is a permutation" (fun () ->
        let rng = Rng.create 13 in
        let p = Rng.permutation rng 50 in
        let sorted = Array.copy p in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "0..49" (Array.init 50 Fun.id) sorted);
    test_case "shuffle preserves multiset" (fun () ->
        let rng = Rng.create 17 in
        let xs = [| 1; 2; 2; 3; 5; 8 |] in
        let ys = Array.copy xs in
        Rng.shuffle rng ys;
        Array.sort compare ys;
        Alcotest.(check (array int)) "sorted equal" [| 1; 2; 2; 3; 5; 8 |] ys);
    test_case "shuffle_list is a permutation of its input" (fun () ->
        let rng = Rng.create 19 in
        let xs = List.init 30 Fun.id in
        let ys = Rng.shuffle_list rng xs in
        Alcotest.(check (list int)) "same elements" xs (List.sort compare ys);
        check_bool "reordered" true (ys <> xs));
    test_case "pick_array draws members; empty rejected" (fun () ->
        let rng = Rng.create 29 in
        let xs = [| 3; 5; 7 |] in
        for _ = 1 to 50 do
          check_bool "member" true (Array.mem (Rng.pick_array rng xs) xs)
        done;
        Alcotest.check_raises "empty"
          (Invalid_argument "Rng.pick_array: empty array") (fun () ->
            ignore (Rng.pick_array rng [||])));
    test_case "bool is not constant" (fun () ->
        let rng = Rng.create 23 in
        let trues = ref 0 in
        for _ = 1 to 200 do
          if Rng.bool rng then incr trues
        done;
        check_bool "mixed" true (!trues > 50 && !trues < 150));
  ]

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)
(* ------------------------------------------------------------------ *)

let graph_tests =
  [
    test_case "create canonicalises and dedupes" (fun () ->
        let g = Graph.create 4 [ (1, 0); (0, 1); (2, 3) ] in
        check_int "edges" 2 (Graph.n_edges g);
        Alcotest.(check (list (pair int int))) "canonical" [ (0, 1); (2, 3) ]
          (Graph.edges g));
    test_case "self-loop rejected" (fun () ->
        Alcotest.check_raises "loop"
          (Invalid_argument "Graph.create: self-loop on 2") (fun () ->
            ignore (Graph.create 4 [ (2, 2) ])));
    test_case "endpoint range checked" (fun () ->
        Alcotest.check_raises "range"
          (Invalid_argument "Graph: vertex 5 outside [0, 4)") (fun () ->
            ignore (Graph.create 4 [ (1, 5) ])));
    test_case "mem_edge is symmetric" (fun () ->
        let g = Graph.create 5 [ (1, 3); (0, 4) ] in
        check_bool "1-3" true (Graph.mem_edge g 1 3);
        check_bool "3-1" true (Graph.mem_edge g 3 1);
        check_bool "0-3" false (Graph.mem_edge g 0 3);
        check_bool "self" false (Graph.mem_edge g 3 3));
    test_case "neighbors sorted" (fun () ->
        let g = Graph.create 6 [ (3, 5); (3, 0); (3, 4); (3, 1) ] in
        Alcotest.(check (list int)) "sorted" [ 0; 1; 4; 5 ] (Graph.neighbors g 3));
    test_case "degree and max_degree" (fun () ->
        let g = Generators.star 7 in
        check_int "centre" 6 (Graph.degree g 0);
        check_int "leaf" 1 (Graph.degree g 3);
        check_int "max" 6 (Graph.max_degree g));
    test_case "degree_histogram" (fun () ->
        let g = Generators.star 5 in
        Alcotest.(check (list (pair int int))) "histogram" [ (1, 4); (4, 1) ]
          (Graph.degree_histogram g));
    test_case "add edges" (fun () ->
        let g = Graph.create 4 [ (0, 1) ] in
        let g2 = Graph.add_edges g [ (1, 2); (0, 1) ] in
        check_int "added one new" 2 (Graph.n_edges g2);
        check_bool "added" true (Graph.mem_edge g2 2 1));
    test_case "add_edges leaves its input unchanged" (fun () ->
        let g = Graph.create 4 [ (0, 1) ] in
        ignore (Graph.add_edges g [ (1, 2); (2, 3) ]);
        check_int "still one edge" 1 (Graph.n_edges g);
        check_bool "no 1-2" false (Graph.mem_edge g 1 2));
    test_case "induced on every vertex is the graph itself" (fun () ->
        let g = Generators.grid 3 3 in
        let sub, back = Graph.induced g (List.init 9 Fun.id) in
        check_bool "equal" true (Graph.equal g sub);
        Alcotest.(check (array int)) "identity back map" (Array.init 9 Fun.id) back);
    test_case "induced subgraph relabels" (fun () ->
        let g = Generators.cycle 5 in
        let sub, back = Graph.induced g [ 1; 2; 3 ] in
        check_int "3 vertices" 3 (Graph.n_vertices sub);
        check_int "2 edges" 2 (Graph.n_edges sub);
        Alcotest.(check (array int)) "back map" [| 1; 2; 3 |] back);
    test_case "induced rejects duplicates" (fun () ->
        let g = Generators.path 4 in
        Alcotest.check_raises "dup"
          (Invalid_argument "Graph.induced: duplicate vertex in selection")
          (fun () -> ignore (Graph.induced g [ 1; 1 ])));
    test_case "components of forest" (fun () ->
        let g = Graph.create 6 [ (0, 1); (2, 3) ] in
        Alcotest.(check (list (list int))) "components"
          [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ]; [ 5 ] ]
          (Graph.components g));
    test_case "components group exactly the connected vertices" (fun () ->
        let g = Graph.create 5 [ (0, 4); (1, 2) ] in
        let id v =
          let rec go i = function
            | [] -> Alcotest.failf "vertex %d in no component" v
            | c :: cs -> if List.mem v c then i else go (i + 1) cs
          in
          go 0 (Graph.components g)
        in
        check_bool "0 and 4 together" true (id 0 = id 4);
        check_bool "1 and 2 together" true (id 1 = id 2);
        check_bool "0 and 1 apart" true (id 0 <> id 1);
        check_bool "3 alone" true (id 3 <> id 0 && id 3 <> id 1));
    test_case "is_connected" (fun () ->
        check_bool "path" true (Graph.is_connected (Generators.path 5));
        check_bool "empty graph of 1" true (Graph.is_connected (Graph.empty 1));
        check_bool "two isolated" false (Graph.is_connected (Graph.empty 2)));
    test_case "relabel by permutation" (fun () ->
        let g = Generators.path 3 in
        let r = Graph.relabel g [| 2; 0; 1 |] in
        (* path 0-1-2 becomes 2-0-1 *)
        check_bool "2-0" true (Graph.mem_edge r 2 0);
        check_bool "0-1" true (Graph.mem_edge r 0 1);
        check_bool "2-1 gone" false (Graph.mem_edge r 2 1));
    test_case "relabel rejects non-permutation" (fun () ->
        let g = Generators.path 3 in
        Alcotest.check_raises "dup"
          (Invalid_argument "Graph.relabel: not a permutation") (fun () ->
            ignore (Graph.relabel g [| 0; 0; 1 |])));
    test_case "complement_edges of path3" (fun () ->
        let g = Generators.path 3 in
        Alcotest.(check (list (pair int int))) "complement" [ (0, 2) ]
          (Graph.complement_edges g));
    test_case "fold and iter agree" (fun () ->
        let g = Generators.cycle 6 in
        let count = Graph.fold_edges (fun _ _ acc -> acc + 1) g 0 in
        let count' = ref 0 in
        Graph.iter_edges (fun _ _ -> incr count') g;
        check_int "fold" 6 count;
        check_int "iter" 6 !count');
    test_case "equal is structural" (fun () ->
        let a = Graph.create 3 [ (0, 1) ] and b = Graph.create 3 [ (1, 0) ] in
        check_bool "equal" true (Graph.equal a b);
        check_bool "different n" false (Graph.equal a (Graph.create 4 [ (0, 1) ])));
    test_case "neighbors_array and edge_array agree with the list views"
      (fun () ->
        let g = Generators.grid 3 4 in
        for v = 0 to 11 do
          Alcotest.(check (list int)) "neighbours" (Graph.neighbors g v)
            (Array.to_list (Graph.neighbors_array g v))
        done;
        Alcotest.(check (list (pair int int))) "edges" (Graph.edges g)
          (Array.to_list (Graph.edge_array g)));
    test_case "edge_at indexes the canonical edge list" (fun () ->
        let g = Graph.create 5 [ (3, 1); (0, 4); (2, 1); (4, 3) ] in
        let n = Graph.n_edges g in
        Alcotest.(check (list (pair int int))) "in order" (Graph.edges g)
          (List.init n (Graph.edge_at g));
        Alcotest.(check (array (pair int int))) "edge_array" (Array.init n (Graph.edge_at g))
          (Graph.edge_array g);
        List.iter
          (fun i ->
            check_bool (Printf.sprintf "index %d rejected" i) true
              (try
                 ignore (Graph.edge_at g i);
                 false
               with Invalid_argument _ -> true))
          [ -1; n ]);
    test_case "incident_edges are the ascending ids of the edges at v"
      (fun () ->
        List.iter
          (fun seed ->
            let g =
              Generators.random_connected (Rng.create seed) ~n:12 ~extra_edges:10
            in
            for v = 0 to 11 do
              let expected =
                List.filter
                  (fun i ->
                    let a, b = Graph.edge_at g i in
                    a = v || b = v)
                  (List.init (Graph.n_edges g) Fun.id)
              in
              Alcotest.(check (list int)) "ids" expected
                (Array.to_list (Graph.incident_edges g v));
              Alcotest.(check (list int)) "neighbors_array" (Graph.neighbors g v)
                (Array.to_list (Graph.neighbors_array g v))
            done)
          [ 1; 2; 3 ]);
  ]

(* Property tests for Graph. *)
let graph_arb =
  QCheck.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ","
           (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) edges)))
    QCheck.Gen.(
      sized (fun size ->
          let n = 2 + (size mod 14) in
          let* m = int_bound (2 * n) in
          let edge = pair (int_bound (n - 1)) (int_bound (n - 1)) in
          let* edges = list_size (return m) edge in
          return (n, List.filter (fun (u, v) -> u <> v) edges)))

let graph_props =
  [
    QCheck.Test.make ~name:"handshake: sum of degrees = 2|E|" ~count:200
      graph_arb (fun (n, edges) ->
        let g = Graph.create n edges in
        let total = ref 0 in
        for v = 0 to n - 1 do
          total := !total + Graph.degree g v
        done;
        !total = 2 * Graph.n_edges g);
    QCheck.Test.make ~name:"mem_edge agrees with edge list" ~count:200 graph_arb
      (fun (n, edges) ->
        let g = Graph.create n edges in
        List.for_all (fun (u, v) -> Graph.mem_edge g u v) (Graph.edges g)
        && List.for_all
             (fun (u, v) -> not (Graph.mem_edge g u v))
             (Graph.complement_edges g));
    QCheck.Test.make ~name:"components partition the vertex set" ~count:200
      graph_arb (fun (n, edges) ->
        let g = Graph.create n edges in
        let all = List.concat (Graph.components g) in
        List.sort compare all = List.init n Fun.id);
    QCheck.Test.make ~name:"relabel preserves isomorphism" ~count:100 graph_arb
      (fun (n, edges) ->
        let g = Graph.create n edges in
        let rng = Rng.create (Hashtbl.hash edges) in
        let perm = Rng.permutation rng n in
        Vf2.exists ~pattern:g ~target:(Graph.relabel g perm) ());
    QCheck.Test.make ~name:"complement and edges form the complete graph"
      ~count:100 graph_arb (fun (n, edges) ->
        let g = Graph.create n edges in
        Graph.n_edges g + List.length (Graph.complement_edges g)
        = n * (n - 1) / 2);
  ]

(* ------------------------------------------------------------------ *)
(* Bfs                                                                 *)
(* ------------------------------------------------------------------ *)

let bfs_tests =
  [
    test_case "distances on a path" (fun () ->
        let d = Bfs.distances (Generators.path 5) 0 in
        Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] d);
    test_case "distances mark unreachable" (fun () ->
        let g = Graph.create 3 [ (0, 1) ] in
        let d = Bfs.distances g 0 in
        check_int "unreachable" max_int d.(2));
    test_case "distances from both ends of a path" (fun () ->
        let g = Generators.path 5 in
        let a = Bfs.distances g 0 and b = Bfs.distances g 4 in
        Alcotest.(check (array int)) "min of both" [| 0; 1; 2; 1; 0 |]
          (Array.map2 min a b);
        for v = 0 to 4 do
          check_int "mirrored" a.(4 - v) b.(v)
        done);
    test_case "edge_order covers all reachable edges once" (fun () ->
        let g = Generators.grid 3 3 in
        let eo = Bfs.edge_order g ~sources:[ 0 ] ~skip:(fun _ _ -> false) in
        check_int "all edges" (Graph.n_edges g) (List.length eo);
        let canon (u, v) = if u < v then (u, v) else (v, u) in
        let dedup = List.sort_uniq compare (List.map canon eo) in
        check_int "unique" (Graph.n_edges g) (List.length dedup));
    test_case "edge_order respects skip" (fun () ->
        let g = Generators.path 3 in
        let eo = Bfs.edge_order g ~sources:[ 0 ]
            ~skip:(fun u v -> (min u v, max u v) = (1, 2)) in
        Alcotest.(check (list (pair int int))) "only first edge" [ (0, 1) ] eo);
    test_case "edge_order chain property" (fun () ->
        (* every emitted edge shares a vertex with an earlier edge or a
           source — the property §III-B of the paper relies on *)
        let g = Generators.grid 4 4 in
        let sources = [ 5 ] in
        let eo = Bfs.edge_order g ~sources ~skip:(fun _ _ -> false) in
        let seen = ref [ 5 ] in
        List.iter
          (fun (u, v) ->
            let ok = List.mem u !seen || List.mem v !seen in
            check_bool "chains" true ok;
            seen := u :: v :: !seen)
          eo);
    test_case "path endpoints and length" (fun () ->
        let g = Generators.grid 3 3 in
        match Bfs.path g 0 8 with
        | None -> Alcotest.fail "expected path"
        | Some p ->
            check_int "starts" 0 (List.hd p);
            check_int "ends" 8 (List.nth p (List.length p - 1));
            check_int "shortest" ((Bfs.distances g 0).(8) + 1) (List.length p));
    test_case "path in disconnected graph" (fun () ->
        let g = Graph.create 4 [ (0, 1); (2, 3) ] in
        check_bool "no path" true (Bfs.path g 0 3 = None));
    test_case "path to itself" (fun () ->
        let g = Generators.path 3 in
        Alcotest.(check (option (list int))) "trivial" (Some [ 1 ]) (Bfs.path g 1 1));
  ]

(* ------------------------------------------------------------------ *)
(* Apsp                                                                *)
(* ------------------------------------------------------------------ *)

let apsp_tests =
  [
    test_case "matches per-source BFS" (fun () ->
        let g = Generators.grid 3 4 in
        let t = Apsp.compute g in
        for src = 0 to 11 do
          let d = Bfs.distances g src in
          for dst = 0 to 11 do
            check_int "distance" d.(dst) (Apsp.dist t src dst)
          done
        done);
    test_case "diameter of cycle" (fun () ->
        check_int "cycle 8" 4 (Apsp.diameter (Apsp.compute (Generators.cycle 8))));
    test_case "diameter rejects disconnected" (fun () ->
        let t = Apsp.compute (Graph.create 3 [ (0, 1) ]) in
        Alcotest.check_raises "disconnected"
          (Invalid_argument "Apsp.diameter: graph is disconnected") (fun () ->
            ignore (Apsp.diameter t)));
    test_case "row and matrix agree with dist" (fun () ->
        let t = Apsp.compute (Generators.grid 3 3) in
        let m = Apsp.matrix t in
        for u = 0 to 8 do
          let r = Apsp.row t u in
          for v = 0 to 8 do
            check_int "row" (Apsp.dist t u v) r.(v);
            check_int "matrix" (Apsp.dist t u v) m.(u).(v)
          done
        done);
    test_case "the largest row entry is the eccentricity" (fun () ->
        let t = Apsp.compute (Generators.path 5) in
        let ecc v = Array.fold_left max 0 (Apsp.row t v) in
        check_int "end" 4 (ecc 0);
        check_int "middle" 2 (ecc 2);
        check_int "diameter is the largest" (Apsp.diameter t)
          (List.fold_left max 0 (List.init 5 ecc)));
    test_case "disconnected pairs are unreachable" (fun () ->
        let t = Apsp.compute (Graph.create 4 [ (0, 1); (2, 3) ]) in
        check_int "across" Apsp.unreachable (Apsp.dist t 0 3);
        check_int "within" 1 (Apsp.dist t 2 3));
    test_case "dist range checked" (fun () ->
        let t = Apsp.compute (Generators.path 3) in
        Alcotest.check_raises "range"
          (Invalid_argument "Apsp.dist: vertex out of range") (fun () ->
            ignore (Apsp.dist t 0 7)));
  ]

(* ------------------------------------------------------------------ *)
(* Pqueue                                                              *)
(* ------------------------------------------------------------------ *)

(* Drain [q], returning the ids in pop order. *)
let drain_ids q =
  let out = ref [] in
  while not (Pqueue.is_empty q) do
    out := Pqueue.pop q :: !out
  done;
  List.rev !out

(* Push ids 0, 1, ... in order under [keys]. *)
let push_all q keys = List.iteri (fun id key -> Pqueue.push q ~key id) keys

(* The (key, insertion order) reference: ids of [keys] sorted by key,
   stably, so equal keys keep their push order. *)
let model_order keys =
  List.mapi (fun id key -> (key, id)) keys
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let pqueue_tests =
  [
    test_case "pops in priority order" (fun () ->
        let q = Pqueue.create () in
        push_all q [ 6; 2; 4; 1 ];
        Alcotest.(check (list int)) "ascending key" [ 3; 1; 2; 0 ]
          (drain_ids q));
    test_case "FIFO among ties" (fun () ->
        let q = Pqueue.create () in
        (* Ids pushed under one key pop in push order. *)
        List.iter (Pqueue.push q ~key:2) [ 0; 1; 2; 3 ];
        check_int "first" 0 (Pqueue.pop q);
        (* Pushed later with a smaller key: it jumps the queue, and the
           ties resume in push order after it. *)
        Pqueue.push q ~key:1 4;
        Pqueue.push q ~key:2 5;
        Alcotest.(check (list int)) "rest" [ 4; 1; 2; 3; 5 ] (drain_ids q));
    test_case "size and is_empty" (fun () ->
        let q = Pqueue.create () in
        check_bool "empty" true (Pqueue.is_empty q);
        Pqueue.push q ~key:1 0;
        check_int "one" 1 (Pqueue.size q);
        ignore (Pqueue.pop q);
        check_bool "empty again" true (Pqueue.is_empty q);
        Alcotest.check_raises "pop on empty"
          (Invalid_argument "Pqueue.pop: empty queue") (fun () ->
            ignore (Pqueue.pop q));
        Alcotest.check_raises "negative key"
          (Invalid_argument "Pqueue.push: negative key") (fun () ->
            Pqueue.push q ~key:(-1) 0));
    test_case "clear drops everything" (fun () ->
        let q = Pqueue.create () in
        for i = 0 to 9 do
          Pqueue.push q ~key:i i
        done;
        Pqueue.clear q;
        check_bool "empty" true (Pqueue.is_empty q);
        (* The storage is reused: a cleared queue orders fresh ids. *)
        List.iter (fun id -> Pqueue.push q ~key:id id) [ 7; 2; 5 ];
        Alcotest.(check (list int)) "reused" [ 2; 5; 7 ] (drain_ids q));
    test_case "clear then reuse leaves no stale ids" (fun () ->
        let q = Pqueue.create () in
        (* Ids 0-5 over three keys, two of them popped, the rest left
           queued when the queue is cleared. *)
        push_all q [ 3; 3; 1; 5; 1; 3 ];
        let first = Pqueue.pop q in
        let second = Pqueue.pop q in
        Alcotest.(check (list int)) "popped" [ 2; 4 ] [ first; second ];
        Pqueue.clear q;
        (* Fresh ids from 0 again, under the same keys and new ones: the
           old bucket links must not leak into the new lists. *)
        push_all q [ 3; 0; 5; 3 ];
        check_int "size" 4 (Pqueue.size q);
        Alcotest.(check (list int)) "fresh only" [ 1; 0; 3; 2 ] (drain_ids q));
    test_case "a key above the initial bucket capacity" (fun () ->
        let q = Pqueue.create () in
        push_all q [ 5; 100_000; 0; 1_000; 100_000; 5 ];
        Alcotest.(check (list int)) "order" [ 2; 0; 5; 3; 1; 4 ] (drain_ids q);
        (* The grown buckets stay usable after a clear. *)
        Pqueue.clear q;
        push_all q [ 70_000; 2 ];
        Alcotest.(check (list int)) "after clear" [ 1; 0 ] (drain_ids q));
  ]

(* One step of the model property: push under a key, pop, or clear. *)
type pq_op = Push of int | Pop | Clear

let pq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun k -> Push k) (int_range 0 12));
        (3, return Pop);
        (1, return Clear);
      ])

let pq_op_print = function
  | Push k -> Printf.sprintf "push %d" k
  | Pop -> "pop"
  | Clear -> "clear"

let pqueue_props =
  [
    QCheck.Test.make ~name:"pqueue pops sorted" ~count:200
      QCheck.(list (int_range 0 400))
      (fun keys ->
        let q = Pqueue.create () in
        push_all q keys;
        drain_ids q = model_order keys);
    (* The A* interleaves pushes and pops, pushes keys below the current
       minimum (its heuristic is not monotone), clears the queue between
       layers and reissues ids from 0 after each clear. Against a
       sorted-list model, every pop is the least (key, insertion order)
       of what is queued. *)
    QCheck.Test.make ~name:"pqueue pops least (key, id) under interleaving"
      ~count:300
      (QCheck.make
         ~print:QCheck.Print.(list pq_op_print)
         QCheck.Gen.(list_size (0 -- 300) pq_op_gen))
      (fun ops ->
        let q = Pqueue.create () in
        (* The model: queued (key, id), least first; ids are issued in
           push order, so id order is insertion order. *)
        let model = ref [] and next = ref 0 in
        let rec insert ((k, id) as e) = function
          | [] -> [ e ]
          | ((k', id') as x) :: rest ->
              if k < k' || (k = k' && id < id') then e :: x :: rest
              else x :: insert e rest
        in
        List.for_all
          (function
            | Push key ->
                let id = !next in
                incr next;
                Pqueue.push q ~key id;
                model := insert (key, id) !model;
                Pqueue.size q = List.length !model
            | Pop -> (
                match !model with
                | [] -> Pqueue.is_empty q
                | (_, least) :: rest ->
                    model := rest;
                    Pqueue.pop q = least)
            | Clear ->
                Pqueue.clear q;
                model := [];
                next := 0;
                Pqueue.is_empty q)
          ops);
  ]

(* ------------------------------------------------------------------ *)
(* Vf2                                                                 *)
(* ------------------------------------------------------------------ *)

let check_valid_monomorphism pattern target f =
  let injective =
    let seen = Hashtbl.create 16 in
    Array.for_all
      (fun m ->
        if Hashtbl.mem seen m then false
        else begin
          Hashtbl.add seen m ();
          true
        end)
      f
  in
  injective
  && Graph.fold_edges
       (fun u v ok -> ok && Graph.mem_edge target f.(u) f.(v))
       pattern true

let vf2_tests =
  [
    test_case "path embeds in grid" (fun () ->
        let pattern = Generators.path 5 and target = Generators.grid 3 3 in
        match Vf2.find ~pattern ~target () with
        | None -> Alcotest.fail "expected embedding"
        | Some f -> check_bool "valid" true (check_valid_monomorphism pattern target f));
    test_case "K1,5 does not embed in grid3x3" (fun () ->
        (* max degree of the grid is 4 — the paper's Fig. 2(c) argument *)
        check_bool "no embedding" false
          (Vf2.exists ~pattern:(Generators.star 6) ~target:(Generators.grid 3 3) ()));
    test_case "triangle does not embed in a tree" (fun () ->
        check_bool "no" false
          (Vf2.exists ~pattern:(Generators.cycle 3) ~target:(Generators.path 9) ()));
    test_case "triangle embeds in K4" (fun () ->
        check_bool "yes" true
          (Vf2.exists ~pattern:(Generators.cycle 3) ~target:(Generators.complete 4) ()));
    test_case "pattern larger than target rejected" (fun () ->
        Alcotest.check_raises "size"
          (Invalid_argument "Vf2: pattern larger than target") (fun () ->
            ignore (Vf2.exists ~pattern:(Generators.path 5) ~target:(Generators.path 3) ())));
    test_case "isolated pattern vertices are placed" (fun () ->
        let pattern = Graph.create 4 [ (0, 1) ] in
        let target = Generators.path 4 in
        match Vf2.find ~pattern ~target () with
        | None -> Alcotest.fail "expected embedding"
        | Some f ->
            check_bool "valid" true (check_valid_monomorphism pattern target f));
    test_case "exists tells a path from a star" (fun () ->
        (* P4 needs two adjacent vertices of degree 2; K1,3 has one *)
        check_bool "path into star" false
          (Vf2.exists ~pattern:(Generators.path 4) ~target:(Generators.star 4) ());
        check_bool "star into path" false
          (Vf2.exists ~pattern:(Generators.star 4) ~target:(Generators.path 4) ());
        check_bool "cycle into itself" true
          (Vf2.exists ~pattern:(Generators.cycle 6) ~target:(Generators.cycle 6) ()));
    test_case "odd cycles do not embed in a bipartite grid" (fun () ->
        let target = Generators.grid 3 3 in
        check_bool "C5" false (Vf2.exists ~pattern:(Generators.cycle 5) ~target ());
        check_bool "C4" true (Vf2.exists ~pattern:(Generators.cycle 4) ~target ());
        check_bool "C8" true (Vf2.exists ~pattern:(Generators.cycle 8) ~target ()));
    test_case "K4 onto itself is a bijection" (fun () ->
        let k4 = Generators.complete 4 in
        match Vf2.find ~pattern:k4 ~target:k4 () with
        | None -> Alcotest.fail "expected embedding"
        | Some f ->
            check_bool "valid" true (check_valid_monomorphism k4 k4 f);
            Alcotest.(check (list int)) "onto" [ 0; 1; 2; 3 ]
              (List.sort compare (Array.to_list f)));
    test_case "a generous node_limit still finds the embedding" (fun () ->
        let pattern = Generators.path 5 and target = Generators.grid 3 3 in
        match Vf2.find ~node_limit:1_000_000 ~pattern ~target () with
        | None -> Alcotest.fail "expected embedding"
        | Some f -> check_bool "valid" true (check_valid_monomorphism pattern target f));
    test_case "node_limit gives up gracefully" (fun () ->
        let pattern = Generators.cycle 12 and target = Generators.grid 5 5 in
        check_bool "budget too small" true
          (Vf2.find ~node_limit:2 ~pattern ~target () = None));
  ]

let vf2_props =
  [
    QCheck.Test.make ~name:"relabelled subgraph always embeds" ~count:100
      graph_arb (fun (n, edges) ->
        let g = Graph.create n edges in
        let rng = Rng.create (Hashtbl.hash (n, edges)) in
        let perm = Rng.permutation rng n in
        let target =
          Graph.add_edges (Graph.relabel g perm)
            (match Graph.complement_edges (Graph.relabel g perm) with
            | [] -> []
            | e :: _ -> [ e ])
        in
        match Vf2.find ~pattern:g ~target () with
        | None -> false
        | Some f -> check_valid_monomorphism g target f);
    QCheck.Test.make ~name:"found monomorphisms are valid" ~count:100
      (QCheck.pair graph_arb graph_arb)
      (fun ((n1, e1), (n2, e2)) ->
        let pattern = Graph.create n1 e1 in
        let target = Graph.create (n1 + n2) e2 in
        match Vf2.find ~pattern ~target () with
        | None -> true
        | Some f -> check_valid_monomorphism pattern target f);
  ]

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let generators_tests =
  [
    test_case "path shape" (fun () ->
        let g = Generators.path 6 in
        check_int "edges" 5 (Graph.n_edges g);
        check_int "end degree" 1 (Graph.degree g 0);
        check_int "mid degree" 2 (Graph.degree g 3));
    test_case "cycle shape" (fun () ->
        let g = Generators.cycle 7 in
        check_int "edges" 7 (Graph.n_edges g);
        check_bool "closes" true (Graph.mem_edge g 0 6));
    test_case "cycle too small" (fun () ->
        Alcotest.check_raises "small"
          (Invalid_argument "Generators.cycle: need at least 3 vertices")
          (fun () -> ignore (Generators.cycle 2)));
    test_case "grid shape" (fun () ->
        let g = Generators.grid 3 4 in
        check_int "vertices" 12 (Graph.n_vertices g);
        check_int "edges" 17 (Graph.n_edges g);
        check_int "corner degree" 2 (Graph.degree g 0));
    test_case "complete graph" (fun () ->
        let g = Generators.complete 6 in
        check_int "edges" 15 (Graph.n_edges g));
    test_case "random_connected is connected" (fun () ->
        let rng = Rng.create 31 in
        for _ = 1 to 20 do
          let g = Generators.random_connected rng ~n:12 ~extra_edges:4 in
          check_bool "connected" true (Graph.is_connected g);
          check_int "edge count" 15 (Graph.n_edges g)
        done);
    test_case "random_connected saturates extra edges" (fun () ->
        let rng = Rng.create 37 in
        let g = Generators.random_connected rng ~n:4 ~extra_edges:100 in
        check_int "complete" 6 (Graph.n_edges g));
    test_case "gnp extremes" (fun () ->
        let rng = Rng.create 41 in
        check_int "p=0" 0 (Graph.n_edges (Generators.gnp rng ~n:10 ~p:0.0));
        check_int "p=1" 45 (Graph.n_edges (Generators.gnp rng ~n:10 ~p:1.0)));
  ]

let () =
  Alcotest.run "qls_graph"
    [
      ("rng", rng_tests);
      ("graph", graph_tests);
      ("graph-properties", List.map QCheck_alcotest.to_alcotest graph_props);
      ("bfs", bfs_tests);
      ("apsp", apsp_tests);
      ("pqueue", pqueue_tests);
      ("pqueue-properties", List.map QCheck_alcotest.to_alcotest pqueue_props);
      ("vf2", vf2_tests);
      ("vf2-properties", List.map QCheck_alcotest.to_alcotest vf2_props);
      ("generators", generators_tests);
    ]
