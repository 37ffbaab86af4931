module Rng = Qls_graph.Rng
module Circuit = Qls_circuit.Circuit
module Gate = Qls_circuit.Gate
module Dag = Qls_circuit.Dag
module Device = Qls_arch.Device
module Mapping = Qls_layout.Mapping
module Transpiled = Qls_layout.Transpiled

type options = {
  trials : int;
  seed : int;
  extended_set_size : int;
  extended_set_weight : float;
  decay_increment : float;
  decay_reset_interval : int;
  lookahead_decay : float option;
  bidirectional_passes : int;
  release_valve_after : int;
  relative_tie_break : bool;
}

let default_options =
  {
    trials = 1;
    seed = 0;
    extended_set_size = 20;
    extended_set_weight = 0.5;
    decay_increment = 0.001;
    decay_reset_interval = 5;
    lookahead_decay = None;
    bidirectional_passes = 2;
    release_valve_after = 32;
    relative_tie_break = false;
  }

(* The historical tie window is an absolute [1e-12], which silently widens
   relative to the scores themselves on large devices (front sums grow
   with device diameter and front size). The relative mode fixes the
   window at 1e-9 of the best score; it changes which candidates count as
   tied, so it sits behind an option and the goldens pin the default. *)
let tied ~opts s best =
  if opts.relative_tie_break then
    Float.abs (s -. best) <= 1e-9 *. Float.max 1.0 best
  else s <= best +. 1e-12

let with_trials trials opts = { opts with trials }

(* Option validation at the [route] boundary. A NaN weight is the nasty
   one: every score comparison involving it is false, so the router
   silently degenerates to first-candidate selection and produces a
   plausible-looking but garbage routing. Rejecting up front turns that
   class of misconfiguration into a typed error at the call site. *)
let validate_options opts =
  let check_weight name v =
    if Float.is_nan v then
      invalid_arg (Printf.sprintf "Sabre.route: %s is NaN" name);
    if v < 0.0 then
      invalid_arg (Printf.sprintf "Sabre.route: %s is negative (%g)" name v)
  in
  check_weight "extended_set_weight" opts.extended_set_weight;
  check_weight "decay_increment" opts.decay_increment;
  (match opts.lookahead_decay with
  | Some gamma -> check_weight "lookahead_decay" gamma
  | None -> ());
  if opts.decay_reset_interval < 1 then
    invalid_arg
      (Printf.sprintf "Sabre.route: decay_reset_interval %d < 1 (decay would never reset)"
         opts.decay_reset_interval);
  if opts.extended_set_size < 0 then
    invalid_arg
      (Printf.sprintf "Sabre.route: extended_set_size %d < 0"
         opts.extended_set_size)

type decision = {
  front_gates : (int * int) list;
  candidates : ((int * int) * float) list;
  chosen : int * int;
}

(* [front_phys] / [extended_phys] are the round's front layer and extended
   set projected to physical pairs and packed flat
   ([|pa0; pb0; pa1; pb1; ...|]), hoisted by the caller: both are
   round-invariant ({!Route_state} docs), so building them here — once per
   {e candidate} — would redo identical Dag/Mapping queries |candidates|
   times per round. [dmat] is the device distance matrix
   ({!Device.distance_matrix}), hoisted once per pass: each queried pair
   relocates its endpoints through the pending (p, p') exchange and pays
   two array indexes, with no accessor call and no tuple traversal in the
   innermost loop (DESIGN.md §14). The basic term accumulates in exact
   integer arithmetic (hop distances are small ints, so the sum is
   float-exact and bit-identical to the historical float fold the goldens
   pin); the weighted lookahead keeps the historical float accumulation
   order. *)
let score_swap ~opts ~dmat ~decay ~front_phys ~extended_phys (p, p') =
  let sum_pairs pairs =
    let sum = ref 0 in
    let i = ref 0 in
    let stop = Array.length pairs in
    (* lint: cancel-poll-coverage — fixed scan over the layer's gate-pair array *)
    while !i < stop do
      let pa = pairs.(!i) and pb = pairs.(!i + 1) in
      let ra = if pa = p then p' else if pa = p' then p else pa in
      let rb = if pb = p then p' else if pb = p' then p else pb in
      sum := !sum + dmat.(ra).(rb);
      i := !i + 2
    done;
    !sum
  in
  let basic =
    let n = Array.length front_phys / 2 in
    float_of_int (sum_pairs front_phys) /. float_of_int (max 1 n)
  in
  let lookahead =
    let n = Array.length extended_phys / 2 in
    if n = 0 then 0.0
    else
      match opts.lookahead_decay with
      | None ->
          (* Stock SABRE divides the extended-set cost by |E| (each
             lookahead gate weighted equally — exactly the behaviour the
             paper's case study exposes). *)
          float_of_int (sum_pairs extended_phys) /. float_of_int n
      | Some gamma ->
          (* With lookahead decay we normalise by the weight mass instead
             so magnitudes stay comparable. *)
          let acc = ref 0.0 and wsum = ref 0.0 in
          for k = 0 to n - 1 do
            let pa = extended_phys.(2 * k) and pb = extended_phys.((2 * k) + 1) in
            let ra = if pa = p then p' else if pa = p' then p else pa in
            let rb = if pb = p then p' else if pb = p' then p else pb in
            let w = gamma ** float_of_int k in
            acc := !acc +. (w *. float_of_int dmat.(ra).(rb));
            wsum := !wsum +. w
          done;
          if !wsum > 0.0 then !acc /. !wsum else 0.0
  in
  let decay_factor = Float.max decay.(p) decay.(p') in
  decay_factor *. (basic +. (opts.extended_set_weight *. lookahead))

(* Pass-level aggregates feed the post-campaign summary even with span
   tracing off; the two [add]s per pass are noise next to routing. *)
let obs_rounds = Qls_obs.counter "router.rounds"
let obs_gates = Qls_obs.counter "router.gates"

let routing_pass ~opts ~rng ~trace ~device ~initial circuit =
  let st = Route_state.create ~device ~source:circuit ~initial in
  let n_phys = Device.n_qubits device in
  let dmat = Device.distance_matrix device in
  let dag = Route_state.dag st in
  let decay = Array.make n_phys 1.0 in
  let decisions = ref [] in
  let rounds_since_reset = ref 0 in
  let stuck = ref 0 in
  (* [traced] is read once per pass so the disabled path costs one
     branch per round and allocates nothing (not even the attrs list). *)
  let traced = Qls_obs.enabled () in
  let pass_sp =
    if traced then Qls_obs.start ~site:"router" "sabre.pass" else Qls_obs.none
  in
  let rounds = ref 0 in
  ignore (Route_state.advance st);
  while not (Route_state.finished st) do
    incr rounds;
    (* Deadline/heartbeat checkpoint: one per routing round. *)
    Qls_cancel.poll ();
    let round_sp =
      if traced then Qls_obs.start ~site:"router" "sabre.round"
      else Qls_obs.none
    in
    if !stuck > opts.release_valve_after then begin
      Route_state.force_route_first st;
      stuck := 0;
      Array.fill decay 0 n_phys 1.0
    end
    else begin
      let candidates = Route_state.swap_candidates st in
      let extended =
        Route_state.extended_set st ~size:opts.extended_set_size
      in
      (* Project the round-invariant structures to flat physical-pair
         arrays once per round: scoring then touches no Dag/Mapping
         accessor (and chases no list links) at all. *)
      let mapping = Route_state.mapping st in
      let pack vs =
        let n = List.length vs in
        let arr = Array.make (2 * n) 0 in
        List.iteri
          (fun i v ->
            let a, b = Dag.pair dag v in
            arr.(2 * i) <- Mapping.phys mapping a;
            arr.((2 * i) + 1) <- Mapping.phys mapping b)
          vs;
        arr
      in
      let front_phys = pack (Route_state.front st) in
      let extended_phys = pack extended in
      let scored =
        List.map
          (fun sw ->
            (sw, score_swap ~opts ~dmat ~decay ~front_phys ~extended_phys sw))
          candidates
      in
      let best_score =
        List.fold_left (fun acc (_, s) -> Float.min acc s) infinity scored
      in
      let ties = List.filter (fun (_, s) -> tied ~opts s best_score) scored in
      match ties with
      | [] ->
          (* Unreachable on a validated (connected) device — every front
             qubit has at least one coupler, so the candidate list is
             never empty and scores are finite. Kept total anyway: fall
             back to the release valve instead of [Rng.pick] on []. *)
          Route_state.force_route_first st
      | _ ->
          let chosen, _ = Rng.pick rng ties in
          if trace then begin
            let front_gates =
              List.map (fun v -> Dag.pair dag v) (List.sort Int.compare (Route_state.front st))
            in
            let sorted =
              List.sort (fun (_, s) (_, s') -> Float.compare s s') scored
            in
            decisions := { front_gates; candidates = sorted; chosen } :: !decisions
          end;
          let p, p' = chosen in
          Route_state.apply_swap st p p';
          decay.(p) <- decay.(p) +. opts.decay_increment;
          decay.(p') <- decay.(p') +. opts.decay_increment;
          incr rounds_since_reset;
          if !rounds_since_reset >= opts.decay_reset_interval then begin
            Array.fill decay 0 n_phys 1.0;
            rounds_since_reset := 0
          end
    end;
    let emitted = Route_state.advance st in
    if traced then
      Qls_obs.stop round_sp ~attrs:[ ("emitted", Qls_obs.Int emitted) ];
    if emitted > 0 then begin
      Array.fill decay 0 n_phys 1.0;
      rounds_since_reset := 0;
      stuck := 0
    end
    else incr stuck
  done;
  Qls_obs.add obs_rounds !rounds;
  Qls_obs.add obs_gates (Route_state.done_count st);
  if traced then
    Qls_obs.stop pass_sp
      ~attrs:
        [
          ("rounds", Qls_obs.Int !rounds);
          ("swaps", Qls_obs.Int (Route_state.swap_count st));
          ("gates", Qls_obs.Int (Route_state.done_count st));
        ];
  (Route_state.finish st, List.rev !decisions)

let reverse_circuit circuit =
  let gates = Circuit.gates circuit in
  let n = Array.length gates in
  Circuit.of_array ~n_qubits:(Circuit.n_qubits circuit)
    (Array.init n (fun i -> gates.(n - 1 - i)))

(* One SABRE trial: refine the initial mapping with alternating
   forward/backward passes, then run the output pass. *)
let run_trial ~opts ~rng ~trace ~device ~initial circuit =
  let reversed = reverse_circuit circuit in
  let refine_rng = Rng.split rng in
  let mapping = ref initial in
  for pass = 0 to opts.bidirectional_passes - 1 do
    let c = if pass mod 2 = 0 then circuit else reversed in
    let result, _ =
      routing_pass ~opts ~rng:refine_rng ~trace:false ~device ~initial:!mapping c
    in
    mapping := Transpiled.final_mapping result
  done;
  routing_pass ~opts ~rng ~trace ~device ~initial:!mapping circuit

(* One complete trial, self-contained: the rng is derived from
   (seed, trial) alone and the initial placement from that rng, so a
   trial's result is a pure function of its index — the property that
   lets the parallel path below reproduce the sequential loop bit for
   bit. *)
let run_one ~opts ~traced ~device ~initial circuit trial =
  let rng = Rng.create ((opts.seed * 1_000_003) + trial) in
  let start =
    match initial with
    | Some m -> m
    | None -> Placement.random rng device circuit
  in
  let sp =
    if traced then Qls_obs.start ~site:"router" "sabre.trial" else Qls_obs.none
  in
  let result, _ = run_trial ~opts ~rng ~trace:false ~device ~initial:start circuit in
  let swaps = Transpiled.swap_count result in
  if traced then
    Qls_obs.stop sp
      ~attrs:[ ("trial", Qls_obs.Int trial); ("swaps", Qls_obs.Int swaps) ];
  (result, swaps)

let route ?(options = default_options) ?jobs ?initial device circuit =
  let opts = options in
  validate_options opts;
  let n_trials = max 1 opts.trials in
  let traced = Qls_obs.enabled () in
  let results =
    if n_trials = 1 then
      (* Single trial runs inline: no domains, no tokens — the
         bench/serve hot path is unchanged. *)
      [| run_one ~opts ~traced ~device ~initial circuit 0 |]
    else begin
      (* Trials are independent, so they fan out across domains
         ([Pool.run ~jobs:1] degenerates to the historical inline loop —
         the equivalence property races that against the parallel
         default). Each shard runs under its own child of the caller's
         ambient cancellation token: ambient tokens are domain-local, so
         without the explicit hand-off a deadline set by a serve request
         or a campaign watchdog would silently stop applying inside the
         fan-out. Results come back in trial order regardless of
         completion order. *)
      let parent = Qls_cancel.current () in
      let jobs =
        match jobs with
        | Some j -> max 1 j
        | None -> min n_trials (Qls_harness.Pool.recommended_jobs ())
      in
      Qls_harness.Pool.run ~jobs
        ~f:(fun trial () ->
          Qls_cancel.with_token (Qls_cancel.child parent) (fun () ->
              run_one ~opts ~traced ~device ~initial circuit trial))
        (Array.make n_trials ())
    end
  in
  (* Left fold over trial order, earlier trial winning ties — exactly the
     historical sequential selection, so parallel and sequential routing
     agree byte for byte (the property test pins this). *)
  let best =
    Array.fold_left
      (fun acc ((_, swaps) as cand) ->
        match acc with
        | Some (_, best_swaps) when best_swaps <= swaps -> acc
        | Some _ | None -> Some cand)
      None results
  in
  match best with
  | Some (result, _) -> result
  | None -> assert false

let route_traced ?(options = default_options) ?initial device circuit =
  let opts = options in
  validate_options opts;
  let rng = Rng.create (opts.seed * 1_000_003) in
  let start =
    match initial with
    | Some m -> m
    | None -> Placement.random rng device circuit
  in
  run_trial ~opts ~rng ~trace:true ~device ~initial:start circuit

let router ?(options = default_options) () =
  let name =
    match options.lookahead_decay with
    | None -> "sabre"
    | Some _ -> "sabre-decay"
  in
  {
    Router.name;
    route = (fun ?initial device circuit -> route ~options ?initial device circuit);
  }
