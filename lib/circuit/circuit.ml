type t = { n_qubits : int; gates : Gate.t array }

let check_gate n g =
  if (match g with
      | Gate.G1 { q; _ } -> q < 0 || q >= n
      | Gate.G2 { a; b; _ } -> a < 0 || a >= n || b < 0 || b >= n)
  then
    invalid_arg
      (Printf.sprintf "Circuit: gate %s uses qubit outside [0, %d)"
         (Gate.to_string g) n)

let of_array ~n_qubits gates =
  if n_qubits < 0 then invalid_arg "Circuit: negative qubit count";
  Array.iter (check_gate n_qubits) gates;
  { n_qubits; gates = Array.copy gates }

let create ~n_qubits gates = of_array ~n_qubits (Array.of_list gates)

let n_qubits c = c.n_qubits
let gates c = Array.copy c.gates
let gate c i = c.gates.(i)
let length c = Array.length c.gates

let two_qubit_count c =
  Array.fold_left (fun acc g -> if Gate.is_two_qubit g then acc + 1 else acc) 0 c.gates

let single_qubit_count c = length c - two_qubit_count c

let two_qubit_gates c =
  let acc = ref [] in
  Array.iteri
    (fun i g -> if Gate.is_two_qubit g then acc := (i, Gate.pair g) :: !acc)
    c.gates;
  List.rev !acc

let two_qubit_pairs c = List.map snd (two_qubit_gates c)

let map_qubits f c ~n_qubits =
  of_array ~n_qubits (Array.map (Gate.map_qubits f) c.gates)

let depth_with ~count c =
  let avail = Array.make (max 1 c.n_qubits) 0 in
  let total = ref 0 in
  Array.iter
    (fun g ->
      if count g then begin
        let qs = Gate.qubits g in
        let start = List.fold_left (fun acc q -> max acc avail.(q)) 0 qs in
        let finish = start + 1 in
        List.iter (fun q -> avail.(q) <- finish) qs;
        total := max !total finish
      end)
    c.gates;
  !total

let depth c = depth_with ~count:(fun _ -> true) c
let two_qubit_depth c = depth_with ~count:Gate.is_two_qubit c

let equal c d =
  c.n_qubits = d.n_qubits
  && Array.length c.gates = Array.length d.gates
  && Array.for_all2 Gate.equal c.gates d.gates
