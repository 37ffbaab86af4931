module Rng = Qls_graph.Rng
module Dag = Qls_circuit.Dag
module Device = Qls_arch.Device

type options = { seed : int }

let default_options = { seed = 0 }

(* Slices scored per decision and their geometric weight, the node
   budget of the placement's monomorphism try, and the non-progressing
   SWAPs tolerated before the release valve fires. *)
let lookahead_slices = 4
let slice_discount = 0.7
let vf2_node_limit = 200_000
let release_valve_after = 32

(* Score every candidate of the round into [scores]. [pairs] holds the
   round's slice lookahead as flat physical pairs, slice [k] ending at
   [ends.(k)], packed once per round ({!Route_state.remaining_layers} is
   round-invariant). [dmat] is the hoisted {!Device.distance_matrix}
   (DESIGN.md §14): each queried pair relocates its endpoints through the
   pending (p, p') exchange and pays two array indexes. The float
   accumulation order is the historical per-vertex traversal, so scores
   stay bit-identical. *)
let score_round ~dmat ~weights ~pairs ~ends ~n_layers ~scores cands n_cands =
  for i = 0 to n_cands - 1 do
    let p = cands.(2 * i) and p' = cands.((2 * i) + 1) in
    let total = ref 0.0 in
    for k = 0 to n_layers - 1 do
      let w = weights.(k) in
      let j = ref (if k = 0 then 0 else ends.(k - 1)) in
      (* lint: cancel-poll-coverage — fixed scan over the slice's gate-pair array *)
      while !j < ends.(k) do
        let pa = pairs.(!j) and pb = pairs.(!j + 1) in
        let ra = if pa = p then p' else if pa = p' then p else pa in
        let rb = if pb = p then p' else if pb = p' then p else pb in
        total := !total +. (w *. float_of_int dmat.(ra).(rb));
        j := !j + 2
      done
    done;
    scores.(i) <- !total
  done

(* Same registry names as Sabre's — the obs registry hands back one
   shared counter per name, so the summary aggregates across routers. *)
let obs_rounds = Qls_obs.counter "router.rounds"
let obs_gates = Qls_obs.counter "router.gates"

let route ?(options = default_options) ?initial device circuit =
  let opts = options in
  let rng = Rng.create opts.seed in
  let start =
    match initial with
    | Some m -> m
    | None -> (
        match Placement.vf2 ~node_limit:vf2_node_limit device circuit with
        | Some m -> m
        | None -> Placement.degree_greedy rng device circuit)
  in
  let dag = Dag.of_circuit circuit in
  let st = Route_state.create ~device ~source:circuit ~dag ~initial:start in
  let dmat = Device.distance_matrix device in
  let q2p = Route_state.phys_table st in
  let scores = Array.make (Device.n_edges device) 0.0 in
  let weights =
    Array.init lookahead_slices (fun k -> slice_discount ** float_of_int k)
  in
  let pairs = Array.make (2 * Dag.n_gates dag) 0 in
  let ends = Array.make lookahead_slices 0 in
  let stuck = ref 0 in
  let traced = Qls_obs.enabled () in
  let pass_sp =
    if traced then Qls_obs.start ~site:"router" "tket.route" else Qls_obs.none
  in
  let rounds = ref 0 in
  ignore (Route_state.advance st);
  while not (Route_state.finished st) do
    incr rounds;
    (* Deadline/heartbeat checkpoint: one per routing round. *)
    Qls_cancel.poll ();
    let round_sp =
      if traced then Qls_obs.start ~site:"router" "tket.round" else Qls_obs.none
    in
    if !stuck > release_valve_after then begin
      Route_state.force_route_first st;
      stuck := 0
    end
    else begin
      let n = Route_state.swap_candidates st in
      let layers =
        Route_state.remaining_layers st ~max_layers:lookahead_slices
      in
      let fill = ref 0 in
      List.iteri
        (fun k layer ->
          List.iter
            (fun v ->
              let a, b = Dag.pair dag v in
              pairs.(!fill) <- q2p.(a);
              pairs.(!fill + 1) <- q2p.(b);
              fill := !fill + 2)
            layer;
          ends.(k) <- !fill)
        layers;
      let cands = Route_state.candidate_pairs st in
      score_round ~dmat ~weights ~pairs ~ends ~n_layers:(List.length layers)
        ~scores cands n;
      let i = Route_state.pick_tied ~rng scores n in
      if i < 0 then
        (* Unreachable on a validated (connected) device; kept total. *)
        Route_state.force_route_first st
      else Route_state.apply_swap st cands.(2 * i) cands.((2 * i) + 1)
    end;
    let emitted = Route_state.advance st in
    if traced then
      Qls_obs.stop round_sp ~attrs:[ ("emitted", Qls_obs.Int emitted) ];
    if emitted > 0 then stuck := 0 else incr stuck
  done;
  Qls_obs.add obs_rounds !rounds;
  Qls_obs.add obs_gates (Route_state.done_count st);
  if traced then
    Qls_obs.stop pass_sp
      ~attrs:
        [
          ("rounds", Qls_obs.Int !rounds);
          ("swaps", Qls_obs.Int (Route_state.swap_count st));
        ];
  Route_state.finish st

let router ?(options = default_options) () =
  {
    Router.name = "tket";
    route = (fun ?initial device circuit -> route ~options ?initial device circuit);
  }
