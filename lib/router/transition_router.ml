module Rng = Qls_graph.Rng
module Dag = Qls_circuit.Dag
module Device = Qls_arch.Device
module Mapping = Qls_layout.Mapping

type options = { seed : int; vf2_node_limit : int }

let default_options = { seed = 0; vf2_node_limit = 200_000 }

(* Choose a coupler for every blocked front gate: process gates by
   decreasing distance, give each the free coupler minimising the summed
   relocation distance of its two qubits. *)
let choose_targets rng device mapping front_pairs =
  let couplers = Array.of_list (Device.edges device) in
  let used = Array.make (Device.n_qubits device) false in
  let assignments = ref [] in
  let dmat = Device.distance_matrix device in
  let pairs =
    List.sort
      (fun (a, b) (a', b') ->
        let d (x, y) = dmat.(Mapping.phys mapping x).(Mapping.phys mapping y) in
        Int.compare (d (a', b')) (d (a, b)))
      front_pairs
  in
  List.iter
    (fun (a, b) ->
      let pa = Mapping.phys mapping a and pb = Mapping.phys mapping b in
      let row_a = dmat.(pa) and row_b = dmat.(pb) in
      let best = ref None in
      Array.iter
        (fun (x, y) ->
          if (not used.(x)) && not used.(y) then begin
            let cost_xy = row_a.(x) + row_b.(y) in
            let cost_yx = row_a.(y) + row_b.(x) in
            let cost, oriented =
              if cost_xy <= cost_yx then (cost_xy, (x, y)) else (cost_yx, (y, x))
            in
            let key = (cost, Rng.int rng 1_000_000) in
            match !best with
            | Some (_, bkey) when bkey <= key -> ()
            | _ -> best := Some (oriented, key)
          end)
        couplers;
      match !best with
      | Some ((x, y), _) ->
          used.(x) <- true;
          used.(y) <- true;
          assignments := (a, x) :: (b, y) :: !assignments
      | None ->
          (* No free coupler left for this gate in this round; it will be
             picked up in a later round once the earlier gates executed. *)
          ())
    pairs;
  !assignments

let route ?(options = default_options) ?initial device circuit =
  let opts = options in
  let rng = Rng.create opts.seed in
  let start =
    match initial with
    | Some m -> m
    | None -> (
        match Placement.vf2 ~node_limit:opts.vf2_node_limit device circuit with
        | Some m -> m
        | None -> Placement.degree_greedy rng device circuit)
  in
  let dag = Dag.of_circuit circuit in
  let st = Route_state.create ~device ~source:circuit ~dag ~initial:start in
  ignore (Route_state.advance st);
  while not (Route_state.finished st) do
    Qls_cancel.poll ();
    let front_pairs = List.map (Dag.pair dag) (Route_state.front st) in
    let mapping = Route_state.mapping st in
    let assignments = choose_targets rng device mapping front_pairs in
    let target q =
      match List.assoc_opt q assignments with
      | Some p -> Token_swap.Fixed p
      | None -> Token_swap.Free
    in
    let swaps = Token_swap.route device ~current:mapping ~target in
    List.iter (fun (x, y) -> Route_state.apply_swap st x y) swaps;
    let emitted = Route_state.advance st in
    if emitted = 0 then
      failwith "Transition_router: token swap produced no progress (bug)"
  done;
  Route_state.finish st

let router ?(options = default_options) () =
  {
    Router.name = "transition";
    route = (fun ?initial device circuit -> route ~options ?initial device circuit);
  }
