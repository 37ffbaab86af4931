module Graph = Qls_graph.Graph
module Apsp = Qls_graph.Apsp

type t = { name : string; graph : Graph.t; dist : Apsp.t }

let create ?(allow_disconnected = false) ~name g =
  if Graph.n_vertices g = 0 then invalid_arg "Device.create: empty graph";
  if (not allow_disconnected) && not (Graph.is_connected g) then
    invalid_arg (Printf.sprintf "Device.create: %S is disconnected" name);
  { name; graph = g; dist = Apsp.compute g }

let name d = d.name
let graph d = d.graph
let equal d d' = String.equal d.name d'.name && Graph.equal d.graph d'.graph
let n_qubits d = Graph.n_vertices d.graph
let n_edges d = Graph.n_edges d.graph
let distance d p p' = Apsp.dist d.dist p p'
let distance_row d p = Apsp.row d.dist p
let distance_matrix d = Apsp.matrix d.dist
let diameter d = Apsp.diameter d.dist
let coupled d p p' = Graph.mem_edge d.graph p p'
let neighbors d p = Graph.neighbors d.graph p
let degree d p = Graph.degree d.graph p
let max_degree d = Graph.max_degree d.graph
let edges d = Graph.edges d.graph
let edge_at d i = Graph.edge_at d.graph i
let incident_edges d p = Graph.incident_edges d.graph p

let pp ppf d =
  Format.fprintf ppf "%s(%d qubits, %d couplers)" d.name (n_qubits d) (n_edges d)
