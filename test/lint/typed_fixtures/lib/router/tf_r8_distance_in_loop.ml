(* R8 fixture: Device.distance resolved per candidate inside router
   loops. Only meaningful when linted under a lib/router path — the
   rule is scoped to the router layer and must stay silent elsewhere.
   Expected findings: 5 (closure to List.fold_left, sort comparator,
   Graph.fold_edges closure, while condition, for body). *)

module Device = Qls_arch.Device
module Graph = Qls_graph.Graph
module Mapping = Qls_layout.Mapping

(* 1. per-candidate lookup in an iteration closure *)
let score device mapping partners p =
  List.fold_left (fun acc q -> acc + Device.distance device p (Mapping.phys mapping q)) 0 partners

(* 2. sort comparator runs O(n log n) times *)
let order device pairs =
  List.sort (fun (a, b) (_, d) -> Int.compare (Device.distance device a b) d) pairs

(* 3. module-local fold iterates too *)
let spread device inter =
  Graph.fold_edges (fun q q' acc -> acc + Device.distance device q q') inter 0

(* 4. while condition (the body polls, so cancel-poll-coverage is quiet) *)
let walk device src dst =
  let p = ref src in
  while Device.distance device !p dst > 0 do
    Qls_cancel.poll ();
    p := List.hd (Device.neighbors device !p)
  done;
  !p

(* 5. for body *)
let sum device src n =
  let total = ref 0 in
  for q = 0 to n - 1 do
    total := !total + Device.distance device src q
  done;
  !total

(* hoisted row indexing is the blessed shape — no finding *)
let score_hoisted device mapping partners p =
  let row = Device.distance_row device p in
  List.fold_left (fun acc q -> acc + row.(Mapping.phys mapping q)) 0 partners

(* a straight-line lookup outside any loop is fine *)
let one_off device a b = Device.distance device a b

(* a justified once-per-round lookup is fine *)
let round_cost device a b =
  List.map
    (fun x ->
      (* lint: distance-in-loop — one lookup per round, not per candidate *)
      Device.distance device a b + x)
    [ 1; 2 ]
