module Rng = Qls_graph.Rng
module Circuit = Qls_circuit.Circuit
module Gate = Qls_circuit.Gate
module Dag = Qls_circuit.Dag
module Device = Qls_arch.Device
module Transpiled = Qls_layout.Transpiled

type options = {
  trials : int;
  seed : int;
  lookahead_decay : float option;
  bidirectional_passes : int;
}

let default_options =
  { trials = 1; seed = 0; lookahead_decay = None; bidirectional_passes = 2 }

(* Qiskit's SABRE constants: the extended set's size and weight, the
   per-use decay bump and the rounds between decay resets; and
   LightSABRE's release valve, the non-progressing SWAPs tolerated before
   it fires. *)
let extended_set_size = 20
let extended_set_weight = 0.5
let decay_increment = 0.001
let decay_reset_interval = 5
let release_valve_after = 32

let with_trials trials opts = { opts with trials }

(* Option validation at the [route] boundary. A NaN weight is the nasty
   one: every score comparison involving it is false, so the router
   silently degenerates to first-candidate selection and produces a
   plausible-looking but garbage routing. Rejecting up front turns that
   class of misconfiguration into a typed error at the call site. *)
let validate_options opts =
  match opts.lookahead_decay with
  | Some gamma when Float.is_nan gamma ->
      invalid_arg "Sabre.route: lookahead_decay is NaN"
  | Some gamma when gamma < 0.0 ->
      invalid_arg
        (Printf.sprintf "Sabre.route: lookahead_decay is negative (%g)" gamma)
  | Some _ | None -> ()

type decision = {
  front_gates : (int * int) list;
  candidates : ((int * int) * float) list;
  chosen : int * int;
}

(* SABRE's lookahead window in program-qubit form, cached on the front
   generation: the extended set's gates ([ext_a]/[ext_b], BFS order) and
   per-program-qubit touch lists over them. Touch list [q] starts at
   [head.(q)] (-1 = empty) and follows [next]; entry [e] names the other
   operand [other.(e)] of one window gate on [q]. Both depend on the
   front set only, so SWAP-only rounds reuse them and only a front change
   rebuilds them. *)
type window = {
  ext_a : int array;
  ext_b : int array;
  mutable n_ext : int;
  mutable gen : int;
  head : int array;
  other : int array;
  next : int array;
}

let make_window ~size ~n_prog =
  {
    ext_a = Array.make size 0;
    ext_b = Array.make size 0;
    n_ext = 0;
    gen = -1;
    head = Array.make (max 1 n_prog) (-1);
    other = Array.make (2 * size) 0;
    next = Array.make (2 * size) 0;
  }

let refresh_window w st ~size =
  let gen = Route_state.front_generation st in
  if gen <> w.gen then begin
    w.gen <- gen;
    for k = 0 to w.n_ext - 1 do
      w.head.(w.ext_a.(k)) <- -1;
      w.head.(w.ext_b.(k)) <- -1
    done;
    let n = Route_state.extended_set st ~size in
    let es = Route_state.extended_buffer st in
    let dag = Route_state.dag st in
    for k = 0 to n - 1 do
      let a, b = Dag.pair dag es.(k) in
      w.ext_a.(k) <- a;
      w.ext_b.(k) <- b;
      w.other.(2 * k) <- b;
      w.next.(2 * k) <- w.head.(a);
      w.head.(a) <- 2 * k;
      w.other.((2 * k) + 1) <- a;
      w.next.((2 * k) + 1) <- w.head.(b);
      w.head.(b) <- (2 * k) + 1
    done;
    w.n_ext <- n
  end

(* Sum of the current physical distances over the front layer. *)
let front_sum dmat q2p st =
  let dag = Route_state.dag st and front = Route_state.front_buffer st in
  let acc = ref 0 in
  for i = 0 to Route_state.front_count st - 1 do
    let a, b = Dag.pair dag front.(i) in
    acc := !acc + dmat.(q2p.(a)).(q2p.(b))
  done;
  !acc

(* Change of the window's distance sum when program qubit [q] moves from
   [p] to [p'] (rows [rp]/[rp'] of the distance matrix): the gates on
   its touch list, except the one shared with [skip], whose two operands
   trade places and keep their distance. *)
let touch_delta w q2p rp rp' q skip =
  let acc = ref 0 and e = ref w.head.(q) in
  (* lint: cancel-poll-coverage — walks one touch list, at most the window size *)
  while !e >= 0 do
    let o = w.other.(!e) in
    if o <> skip then begin
      let po = q2p.(o) in
      acc := !acc + rp'.(po) - rp.(po)
    end;
    e := w.next.(!e)
  done;
  !acc

(* Score every candidate of the round into [scores]:

     score(p, p') = max(decay p, decay p') * (basic / |F| + w * lookahead)

   where [basic] and [lookahead] are the front and window distance sums
   after the SWAP. Each is the round's sum plus the change on the pairs
   that touch p or p' (DESIGN.md §14, "SABRE delta scoring"): the front
   has at most one gate per physical qubit, read from the partner table;
   the window's gates on the two occupants come from the touch lists.
   The sums are exact integers, so the floats divided out of them — and
   with them the scores, the tie set and the draw — are bit-identical to
   summing every pair per candidate. With [lookahead_decay] the window
   terms carry per-position weights and keep their full float scan. *)
let score_round ~opts ~dmat ~decay ~weights ~wsums ~scores w st n_cands =
  let q2p = Route_state.phys_table st and p2q = Route_state.occupant_table st in
  let partner = Route_state.front_partner st in
  let cands = Route_state.candidate_pairs st in
  let n_front = float_of_int (max 1 (Route_state.front_count st)) in
  let front_total = front_sum dmat q2p st in
  let n_ext = w.n_ext in
  let ext_total = ref 0 in
  for k = 0 to n_ext - 1 do
    ext_total := !ext_total + dmat.(q2p.(w.ext_a.(k))).(q2p.(w.ext_b.(k)))
  done;
  let ext_total = !ext_total in
  for i = 0 to n_cands - 1 do
    let p = cands.(2 * i) and p' = cands.((2 * i) + 1) in
    let rp = dmat.(p) and rp' = dmat.(p') in
    let x = partner.(p) and y = partner.(p') in
    let basic_sum =
      if x = p' then front_total
      else
        front_total
        + (if x >= 0 then rp'.(x) - rp.(x) else 0)
        + if y >= 0 then rp.(y) - rp'.(y) else 0
    in
    let lookahead =
      if n_ext = 0 then 0.0
      else
        match opts.lookahead_decay with
        | None ->
            (* Stock SABRE divides the extended-set cost by |E| (each
               lookahead gate weighted equally — exactly the behaviour the
               paper's case study exposes). *)
            let a = p2q.(p) and b = p2q.(p') in
            let d =
              (if a >= 0 then touch_delta w q2p rp rp' a b else 0)
              + if b >= 0 then touch_delta w q2p rp' rp b a else 0
            in
            float_of_int (ext_total + d) /. float_of_int n_ext
        | Some _ ->
            (* With lookahead decay the sum is weighted by gamma^k and
               normalised by the weight mass, so magnitudes stay
               comparable. *)
            let acc = ref 0.0 in
            for k = 0 to n_ext - 1 do
              let pa = q2p.(w.ext_a.(k)) and pb = q2p.(w.ext_b.(k)) in
              let ra = if pa = p then p' else if pa = p' then p else pa in
              let rb = if pb = p then p' else if pb = p' then p else pb in
              acc := !acc +. (weights.(k) *. float_of_int dmat.(ra).(rb))
            done;
            let wsum = wsums.(n_ext) in
            if wsum > 0.0 then !acc /. wsum else 0.0
    in
    let basic = float_of_int basic_sum /. n_front in
    scores.(i) <-
      Float.max decay.(p) decay.(p')
      *. (basic +. (extended_set_weight *. lookahead))
  done

(* Pass-level aggregates feed the post-campaign summary even with span
   tracing off; the two [add]s per pass are noise next to routing. *)
let obs_rounds = Qls_obs.counter "router.rounds"
let obs_gates = Qls_obs.counter "router.gates"

(* One routing pass over [circuit], whose DAG is [dag]. Returns the
   finished state — the output pass packages it with
   [Route_state.finish], a refinement pass only reads its final
   mapping — and the decisions recorded when [trace] is set. *)
let routing_pass ~opts ~rng ~trace ~device ~initial (circuit, dag) =
  let st = Route_state.create ~device ~source:circuit ~dag ~initial in
  let n_phys = Device.n_qubits device in
  let dmat = Device.distance_matrix device in
  let decay = Array.make n_phys 1.0 in
  let size = extended_set_size in
  let window = make_window ~size ~n_prog:(Circuit.n_qubits circuit) in
  let scores = Array.make (Device.n_edges device) 0.0 in
  (* gamma^k and its prefix sums, once per pass. *)
  let weights, wsums =
    match opts.lookahead_decay with
    | None -> ([||], [||])
    | Some gamma ->
        let weights = Array.init size (fun k -> gamma ** float_of_int k) in
        let wsums = Array.make (size + 1) 0.0 in
        for k = 0 to size - 1 do
          wsums.(k + 1) <- wsums.(k) +. weights.(k)
        done;
        (weights, wsums)
  in
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
    if !stuck > release_valve_after then begin
      Route_state.force_route_first st;
      stuck := 0;
      Array.fill decay 0 n_phys 1.0
    end
    else begin
      let n = Route_state.swap_candidates st in
      refresh_window window st ~size;
      score_round ~opts ~dmat ~decay ~weights ~wsums ~scores window st n;
      let i = Route_state.pick_tied ~rng scores n in
      if i < 0 then
        (* Unreachable on a validated (connected) device — every front
           qubit has at least one coupler, so the candidate set is never
           empty and scores are finite. Kept total anyway: fall back to
           the release valve. *)
        Route_state.force_route_first st
      else begin
        let cands = Route_state.candidate_pairs st in
        let p = cands.(2 * i) and p' = cands.((2 * i) + 1) in
        if trace then begin
          let front_gates =
            List.map (fun v -> Dag.pair dag v)
              (List.sort Int.compare (Route_state.front st))
          in
          let scored =
            List.init n (fun j ->
                ((cands.(2 * j), cands.((2 * j) + 1)), scores.(j)))
          in
          let sorted =
            List.sort (fun (_, s) (_, s') -> Float.compare s s') scored
          in
          decisions :=
            { front_gates; candidates = sorted; chosen = (p, p') } :: !decisions
        end;
        Route_state.apply_swap st p p';
        decay.(p) <- decay.(p) +. decay_increment;
        decay.(p') <- decay.(p') +. decay_increment;
        incr rounds_since_reset;
        if !rounds_since_reset >= decay_reset_interval then begin
          Array.fill decay 0 n_phys 1.0;
          rounds_since_reset := 0
        end
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
  (st, List.rev !decisions)

(* A circuit with its DAG. A route builds one for each direction, before
   any trial, and every trial and pass shares them read-only. *)
let with_dag c = (c, Dag.of_circuit c)

let directions circuit =
  let n = Circuit.length circuit in
  ( with_dag circuit,
    with_dag
      (Circuit.of_array ~n_qubits:(Circuit.n_qubits circuit)
         (Array.init n (fun i -> Circuit.gate circuit (n - 1 - i)))) )

(* One SABRE trial: refine the initial mapping with alternating
   forward/backward passes, then run the output pass. *)
let run_trial ~opts ~rng ~trace ~device ~initial (forward, backward) =
  let refine_rng = Rng.split rng in
  let mapping = ref initial in
  for pass = 0 to opts.bidirectional_passes - 1 do
    let st, _ =
      routing_pass ~opts ~rng:refine_rng ~trace:false ~device ~initial:!mapping
        (if pass mod 2 = 0 then forward else backward)
    in
    mapping := Route_state.mapping st
  done;
  let st, decisions =
    routing_pass ~opts ~rng ~trace ~device ~initial:!mapping forward
  in
  (Route_state.finish st, decisions)

(* One complete trial, self-contained: the rng is derived from
   (seed, trial) alone and the initial placement from that rng, so a
   trial's result is a pure function of its index — the property that
   lets the parallel path below reproduce the sequential loop bit for
   bit. *)
let run_one ~opts ~traced ~device ~initial (((circuit, _), _) as dirs) trial =
  let rng = Rng.create ((opts.seed * 1_000_003) + trial) in
  let start =
    match initial with
    | Some m -> m
    | None -> Placement.random rng device circuit
  in
  let sp =
    if traced then Qls_obs.start ~site:"router" "sabre.trial" else Qls_obs.none
  in
  let result, _ = run_trial ~opts ~rng ~trace:false ~device ~initial:start dirs in
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
  let dirs = directions circuit in
  let results =
    if n_trials = 1 then
      (* Single trial runs inline: no domains, no tokens — the
         bench/serve hot path is unchanged. *)
      [| run_one ~opts ~traced ~device ~initial dirs 0 |]
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
              run_one ~opts ~traced ~device ~initial dirs trial))
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
  run_trial ~opts ~rng ~trace:true ~device ~initial:start (directions circuit)

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
