module Rng = Qls_graph.Rng
module Dag = Qls_circuit.Dag
module Device = Qls_arch.Device
module Mapping = Qls_layout.Mapping

type options = {
  lookahead_slices : int;
  slice_discount : float;
  seed : int;
  vf2_node_limit : int;
  release_valve_after : int;
  relative_tie_break : bool;
}

let default_options =
  {
    lookahead_slices = 4;
    slice_discount = 0.7;
    seed = 0;
    vf2_node_limit = 200_000;
    release_valve_after = 32;
    relative_tie_break = false;
  }

(* Same scale-dependence fix as Sabre.tied: the absolute 1e-12 window is
   the historical default the goldens pin; the relative mode tracks the
   score magnitude. *)
let tied ~opts s best =
  if opts.relative_tie_break then
    Float.abs (s -. best) <= 1e-9 *. Float.max 1.0 best
  else s <= best +. 1e-12

(* [layers_phys] is the round's slice lookahead projected to flat
   physical-pair arrays (one [|pa0; pb0; ...|] per slice), hoisted by the
   caller: {!Route_state.remaining_layers} is round-invariant (and
   simulates the whole lookahead window), so rebuilding it per candidate
   multiplied the round cost by |candidates| for no change in the result.
   [dmat] is the hoisted {!Device.distance_matrix} (DESIGN.md §14): each
   queried pair relocates its endpoints through the pending (p, p')
   exchange and pays two array indexes. The float accumulation order
   matches the historical per-vertex traversal, so scores stay
   bit-identical. *)
let score_swap ~opts ~dmat ~layers_phys (p, p') =
  let total = ref 0.0 in
  List.iteri
    (fun k layer ->
      let w = opts.slice_discount ** float_of_int k in
      let i = ref 0 in
      let stop = Array.length layer in
      (* lint: cancel-poll-coverage — fixed scan over the slice's gate-pair array *)
      while !i < stop do
        let pa = layer.(!i) and pb = layer.(!i + 1) in
        let ra = if pa = p then p' else if pa = p' then p else pa in
        let rb = if pb = p then p' else if pb = p' then p else pb in
        total := !total +. (w *. float_of_int dmat.(ra).(rb));
        i := !i + 2
      done)
    layers_phys;
  !total

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
        match Placement.vf2 ~node_limit:opts.vf2_node_limit device circuit with
        | Some m -> m
        | None -> Placement.degree_greedy rng device circuit)
  in
  let st = Route_state.create ~device ~source:circuit ~initial:start in
  let dmat = Device.distance_matrix device in
  let dag = Route_state.dag st in
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
    if !stuck > opts.release_valve_after then begin
      Route_state.force_route_first st;
      stuck := 0
    end
    else begin
      let candidates = Route_state.swap_candidates st in
      let layers =
        Route_state.remaining_layers st ~max_layers:opts.lookahead_slices
      in
      let mapping = Route_state.mapping st in
      let layers_phys =
        List.map
          (fun layer ->
            let n = List.length layer in
            let arr = Array.make (2 * n) 0 in
            List.iteri
              (fun i v ->
                let a, b = Dag.pair dag v in
                arr.(2 * i) <- Mapping.phys mapping a;
                arr.((2 * i) + 1) <- Mapping.phys mapping b)
              layer;
            arr)
          layers
      in
      let scored =
        List.map
          (fun sw -> (sw, score_swap ~opts ~dmat ~layers_phys sw))
          candidates
      in
      let best = List.fold_left (fun acc (_, s) -> Float.min acc s) infinity scored in
      let ties = List.filter (fun (_, s) -> tied ~opts s best) scored in
      match ties with
      | [] ->
          (* Unreachable on a validated (connected) device; kept total
             rather than [Rng.pick]-crashing on []. *)
          Route_state.force_route_first st
      | _ ->
          let (p, p'), _ = Rng.pick rng ties in
          Route_state.apply_swap st p p'
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
