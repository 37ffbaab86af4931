module Circuit = Qls_circuit.Circuit
module Gate = Qls_circuit.Gate
module Device = Qls_arch.Device

type violation =
  | Missing_gate of int
  | Duplicated_gate of int
  | Order_broken of { qubit : int; earlier : int; later : int }
  | Uncoupled_gate of { op_index : int; gate : int; phys : int * int }
  | Uncoupled_swap of { op_index : int; phys : int * int }

let pp_violation ppf = function
  | Missing_gate i -> Format.fprintf ppf "source gate %d never emitted" i
  | Duplicated_gate i -> Format.fprintf ppf "source gate %d emitted twice" i
  | Order_broken { qubit; earlier; later } ->
      Format.fprintf ppf
        "qubit %d: gate %d emitted after gate %d (source order reversed)"
        qubit later earlier
  | Uncoupled_gate { op_index; gate; phys = p, p' } ->
      Format.fprintf ppf
        "op %d: gate %d placed on uncoupled physical pair (%d,%d)" op_index
        gate p p'
  | Uncoupled_swap { op_index; phys = p, p' } ->
      Format.fprintf ppf "op %d: SWAP on uncoupled physical pair (%d,%d)"
        op_index p p'

type report = { swap_count : int; depth : int }

let check t =
  let src = Transpiled.source t in
  let dev = Transpiled.device t in
  let n_gates = Circuit.length src in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let seen = Array.make n_gates false in
  (* Last emitted source index per program qubit, for order checking. *)
  let last_on = Array.make (max 1 (Circuit.n_qubits src)) (-1) in
  let in_order i q =
    if last_on.(q) > i then
      add (Order_broken { qubit = q; earlier = last_on.(q); later = i })
    else last_on.(q) <- i
  in
  let n_swaps = ref 0 in
  Transpiled.iter_mapped t (fun op_index op q2p ->
      match op with
      | Transpiled.Swap (p, p') ->
          incr n_swaps;
          if not (Device.coupled dev p p') then
            add (Uncoupled_swap { op_index; phys = (p, p') })
      | Transpiled.Gate i -> (
          if i < 0 || i >= n_gates then
            invalid_arg (Printf.sprintf "Verifier: gate index %d out of range" i);
          if seen.(i) then add (Duplicated_gate i) else seen.(i) <- true;
          match Circuit.gate src i with
          | Gate.G1 { q; _ } -> in_order i q
          | Gate.G2 { a; b; _ } ->
              in_order i a;
              in_order i b;
              let pa = q2p.(a) and pb = q2p.(b) in
              if not (Device.coupled dev pa pb) then
                add (Uncoupled_gate { op_index; gate = i; phys = (pa, pb) })));
  Array.iteri (fun i s -> if not s then add (Missing_gate i)) seen;
  match !violations with
  | [] -> Ok { swap_count = !n_swaps; depth = Transpiled.depth t }
  | vs -> Error (List.rev vs)

let is_valid t = Result.is_ok (check t)

let check_exn t =
  match check t with
  | Ok r -> r
  | Error vs ->
      failwith
        (Format.asprintf "@[<v>invalid transpiled circuit:@,%a@]"
           (Format.pp_print_list pp_violation)
           vs)
