type t = {
  pairs : (int * int) array;          (* qubit pair per DAG vertex *)
  circuit_index : int array;          (* position in the full gate sequence *)
  succ : int array;                   (* slots 2v, 2v+1: successors, -1 = none *)
  pred : int array;                   (* slots 2v, 2v+1: predecessors, -1 = none *)
}

(* Put [w] in the first free slot of [v]. A vertex is a two-qubit gate,
   and each of its qubits adds at most one arc in either direction, so
   two slots always suffice. *)
let add_slot slots v w =
  if slots.(2 * v) < 0 then slots.(2 * v) <- w else slots.((2 * v) + 1) <- w

let of_circuit c =
  let n = Circuit.two_qubit_count c in
  let pairs = Array.make n (0, 0) in
  let circuit_index = Array.make n 0 in
  let succ = Array.make (2 * n) (-1) in
  let pred = Array.make (2 * n) (-1) in
  let last_on = Array.make (max 1 (Circuit.n_qubits c)) (-1) in
  let link i q =
    let j = last_on.(q) in
    (* One arc when both qubits were last touched by the same gate:
       linking the second qubit finds [i] already in [j]'s slots. *)
    if j >= 0 && succ.(2 * j) <> i && succ.((2 * j) + 1) <> i then begin
      add_slot succ j i;
      add_slot pred i j
    end;
    last_on.(q) <- i
  in
  let i = ref 0 in
  for ci = 0 to Circuit.length c - 1 do
    match Circuit.gate c ci with
    | Gate.G1 _ -> ()
    | Gate.G2 { a; b; _ } ->
        pairs.(!i) <- (a, b);
        circuit_index.(!i) <- ci;
        link !i a;
        link !i b;
        incr i
  done;
  { pairs; circuit_index; succ; pred }

let n_gates d = Array.length d.pairs
let pair d i = d.pairs.(i)
let circuit_index d i = d.circuit_index.(i)
let succ_slots d = d.succ

(* The filled slots of [v], in slot order. *)
let slot_list slots v =
  let s0 = slots.(2 * v) and s1 = slots.((2 * v) + 1) in
  if s0 < 0 then [] else if s1 < 0 then [ s0 ] else [ s0; s1 ]

let successors d i = slot_list d.succ i
let predecessors d i = slot_list d.pred i

let in_degree d i =
  if d.pred.(2 * i) < 0 then 0 else if d.pred.((2 * i) + 1) < 0 then 1 else 2

let topological_order d =
  let n = n_gates d in
  let indeg = Array.init n (fun i -> in_degree d i) in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Queue.add i queue
  done;
  let out = ref [] in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    out := v :: !out;
    for s = 2 * v to (2 * v) + 1 do
      let w = d.succ.(s) in
      if w >= 0 then begin
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue
      end
    done
  done;
  let order = List.rev !out in
  if List.length order <> n then
    invalid_arg "Dag.topological_order: cycle detected (corrupt DAG)";
  order
