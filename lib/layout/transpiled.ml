module Circuit = Qls_circuit.Circuit
module Gate = Qls_circuit.Gate
module Device = Qls_arch.Device

type op = Gate of int | Swap of int * int

type t = {
  source : Circuit.t;
  device : Device.t;
  initial : Mapping.t;
  ops : op list;
}

let create ~source ~device ~initial ops =
  if Mapping.n_program initial <> Circuit.n_qubits source then
    invalid_arg "Transpiled.create: mapping/program qubit count mismatch";
  if Mapping.n_physical initial <> Device.n_qubits device then
    invalid_arg "Transpiled.create: mapping/device qubit count mismatch";
  { source; device; initial; ops }

let source t = t.source
let device t = t.device
let initial_mapping t = t.initial
let ops t = t.ops

let swaps t =
  List.filter_map
    (function Swap (p, p') -> Some (p, p') | Gate _ -> None)
    t.ops

let swap_count t = List.length (swaps t)
let final_mapping t = Mapping.apply_swaps t.initial (swaps t)

let mapping_at t k =
  let rec go m i = function
    | [] -> m
    | _ when i >= k -> m
    | Swap (p, p') :: rest -> go (Mapping.swap_physical m p p') (i + 1) rest
    | Gate _ :: rest -> go m (i + 1) rest
  in
  go t.initial 0 t.ops

let iter_mapped t f =
  let q2p = Mapping.to_array t.initial in
  let p2q = Array.init (Mapping.n_physical t.initial) (Mapping.occupant t.initial) in
  List.iteri
    (fun k op ->
      (match op with
      | Swap (p, p') -> Mapping.swap_tables ~q2p ~p2q p p'
      | Gate _ -> ());
      f k op q2p)
    t.ops

let to_physical_circuit t =
  let out = ref [] in
  iter_mapped t (fun _ op q2p ->
      let g =
        match op with
        | Swap (p, p') -> Gate.swap p p'
        | Gate i -> Gate.map_qubits (fun q -> q2p.(q)) (Circuit.gate t.source i)
      in
      out := g :: !out);
  Circuit.create ~n_qubits:(Device.n_qubits t.device) (List.rev !out)

(* The physical circuit's depth without building it: one frontier per
   physical qubit. A single-qubit gate is placed as the pair (p, p). *)
let depth t =
  let front = Array.make (max 1 (Device.n_qubits t.device)) 0 in
  let place p p' =
    let d = 1 + Int.max front.(p) front.(p') in
    front.(p) <- d;
    front.(p') <- d
  in
  iter_mapped t (fun _ op q2p ->
      match op with
      | Swap (p, p') -> place p p'
      | Gate i -> (
          match Circuit.gate t.source i with
          | Gate.G1 { q; _ } -> place q2p.(q) q2p.(q)
          | Gate.G2 { a; b; _ } -> place q2p.(a) q2p.(b)));
  Array.fold_left Int.max 0 front

let pp ppf t =
  let n_swap = swap_count t in
  Format.fprintf ppf
    "@[<v>transpiled: %d source gates + %d swaps on %s@,swaps: %a@]"
    (Circuit.length t.source) n_swap
    (Device.name t.device)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (p, p') -> Format.fprintf ppf "(%d,%d)" p p'))
    (swaps t)
