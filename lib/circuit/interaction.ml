let of_pairs ~n_qubits pairs = Qls_graph.Graph.create n_qubits pairs

let of_circuit c =
  of_pairs ~n_qubits:(Circuit.n_qubits c) (Circuit.two_qubit_pairs c)

let swap_free c coupling =
  Qls_graph.Vf2.exists ~pattern:(of_circuit c) ~target:coupling ()
