type section = {
  index : int;
  special_circuit_index : int;
  backbone_circuit_indices : int list;
}

type t = {
  device : Qls_arch.Device.t;
  circuit : Qls_circuit.Circuit.t;
  optimal_swaps : int;
  initial_mapping : Qls_layout.Mapping.t;
  designed : Qls_layout.Transpiled.t;
  sections : section list;
  seed : int;
}

let backbone_indices t =
  List.concat_map (fun s -> s.backbone_circuit_indices) t.sections
  |> List.sort_uniq Int.compare

let two_qubit_count t = Qls_circuit.Circuit.two_qubit_count t.circuit

let filler_count t = two_qubit_count t - List.length (backbone_indices t)

let pp_summary ppf t =
  Format.fprintf ppf
    "qubikos[%s, %d 2q gates (%d backbone + %d filler), optimal swaps = %d, seed %d]"
    (Qls_arch.Device.name t.device)
    (two_qubit_count t)
    (List.length (backbone_indices t))
    (filler_count t) t.optimal_swaps t.seed
