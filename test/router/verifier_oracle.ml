(* Frozen reference copy of the verifier that [Verifier.check] replaced:
   a [Mapping.swap_physical] copy per SWAP, and the depth measured on a
   physical circuit built the old way. Test-only: the properties in
   test_qls_router.ml check the one-pass verifier against it. Do not
   edit it to match a change in [Verifier]; a difference is what the
   properties exist to find. *)

module Circuit = Qls_circuit.Circuit
module Gate = Qls_circuit.Gate
module Device = Qls_arch.Device
module Mapping = Qls_layout.Mapping
module Transpiled = Qls_layout.Transpiled
open Qls_layout.Verifier

let to_physical_circuit t =
  let n_phys = Device.n_qubits (Transpiled.device t) in
  let m = ref (Transpiled.initial_mapping t) in
  let out =
    List.map
      (fun op ->
        match op with
        | Transpiled.Swap (p, p') ->
            m := Mapping.swap_physical !m p p';
            Gate.swap p p'
        | Transpiled.Gate i ->
            let g = Circuit.gate (Transpiled.source t) i in
            Gate.map_qubits (fun q -> Mapping.phys !m q) g)
      (Transpiled.ops t)
  in
  Circuit.create ~n_qubits:n_phys out

let check t =
  let src = Transpiled.source t in
  let dev = Transpiled.device t in
  let n_gates = Circuit.length src in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let seen = Array.make n_gates false in
  (* Last emitted source index per program qubit, for order checking. *)
  let last_on = Array.make (max 1 (Circuit.n_qubits src)) (-1) in
  let mapping = ref (Transpiled.initial_mapping t) in
  let n_swaps = ref 0 in
  List.iteri
    (fun op_index op ->
      match op with
      | Transpiled.Swap (p, p') ->
          incr n_swaps;
          if not (Device.coupled dev p p') then
            add (Uncoupled_swap { op_index; phys = (p, p') });
          mapping := Mapping.swap_physical !mapping p p'
      | Transpiled.Gate i ->
          if i < 0 || i >= n_gates then
            invalid_arg (Printf.sprintf "Verifier: gate index %d out of range" i);
          if seen.(i) then add (Duplicated_gate i) else seen.(i) <- true;
          let g = Circuit.gate src i in
          List.iter
            (fun q ->
              if last_on.(q) > i then
                add (Order_broken { qubit = q; earlier = last_on.(q); later = i })
              else last_on.(q) <- i)
            (Gate.qubits g);
          if Gate.is_two_qubit g then begin
            let a, b = Gate.pair g in
            let pa = Mapping.phys !mapping a and pb = Mapping.phys !mapping b in
            if not (Device.coupled dev pa pb) then
              add (Uncoupled_gate { op_index; gate = i; phys = (pa, pb) })
          end)
    (Transpiled.ops t);
  Array.iteri (fun i s -> if not s then add (Missing_gate i)) seen;
  match !violations with
  | [] ->
      Ok
        {
          swap_count = !n_swaps;
          depth = Circuit.depth (to_physical_circuit t);
        }
  | vs -> Error (List.rev vs)
