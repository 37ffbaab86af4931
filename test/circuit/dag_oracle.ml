(* Frozen reference copy of the list-based DAG builder that [Dag]'s
   two-slot arrays replaced. Test-only: the property in
   test_qls_circuit.ml checks the flat builder's arcs, in order, against
   it. Do not edit it to match a change in [Dag]; a difference is what
   the property exists to find. *)

module Circuit = Qls_circuit.Circuit

type t = {
  pairs : (int * int) array;
  circuit_index : int array;
  succs : int list array;
  preds : int list array;
}

let of_circuit c =
  let two = Circuit.two_qubit_gates c in
  let n = List.length two in
  let pairs = Array.make n (0, 0) in
  let circuit_index = Array.make n 0 in
  List.iteri
    (fun i (ci, pq) ->
      pairs.(i) <- pq;
      circuit_index.(i) <- ci)
    two;
  let succs = Array.make n [] in
  let preds = Array.make n [] in
  let last_on = Array.make (max 1 (Circuit.n_qubits c)) (-1) in
  for i = 0 to n - 1 do
    let a, b = pairs.(i) in
    let link q =
      let j = last_on.(q) in
      if j >= 0 then begin
        if not (List.mem i succs.(j)) then begin
          succs.(j) <- i :: succs.(j);
          preds.(i) <- j :: preds.(i)
        end
      end;
      last_on.(q) <- i
    in
    link a;
    link b
  done;
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  { pairs; circuit_index; succs; preds }

let n_gates d = Array.length d.pairs
let pair d i = d.pairs.(i)
let circuit_index d i = d.circuit_index.(i)
let successors d i = d.succs.(i)
let predecessors d i = d.preds.(i)
let in_degree d i = List.length d.preds.(i)

let front_layer d =
  let acc = ref [] in
  for i = n_gates d - 1 downto 0 do
    if List.is_empty d.preds.(i) then acc := i :: !acc
  done;
  !acc
