module Circuit = Qls_circuit.Circuit
module Gate = Qls_circuit.Gate
module Dag = Qls_circuit.Dag
module Device = Qls_arch.Device
module Mapping = Qls_layout.Mapping
module Transpiled = Qls_layout.Transpiled

(* Build counters for the round-invariant lookahead structures. The
   routers are expected to build each at most once per routing round; the
   bench (bench/router_bench.ml) and the hoisting regression tests read
   these to prove it. Atomic because campaign workers route on several
   domains at once. *)
module Debug = struct
  type counters = {
    extended_set_builds : int;
    remaining_layers_builds : int;
    swap_candidate_scans : int;
    phys_front_scanned : int;
  }

  let es_builds = Atomic.make 0
  let rl_builds = Atomic.make 0
  let sc_scans = Atomic.make 0
  let pf_scanned = Atomic.make 0

  let reset () =
    Atomic.set es_builds 0;
    Atomic.set rl_builds 0;
    Atomic.set sc_scans 0;
    Atomic.set pf_scanned 0

  let counters () =
    {
      extended_set_builds = Atomic.get es_builds;
      remaining_layers_builds = Atomic.get rl_builds;
      swap_candidate_scans = Atomic.get sc_scans;
      phys_front_scanned = Atomic.get pf_scanned;
    }
end

type t = {
  device : Device.t;
  source : Circuit.t;
  dag : Dag.t;
  succ : int array;           (* the DAG's successor slots, read-only *)
  initial : Mapping.t;
  (* The current mapping, updated in place by [apply_swap]: [q2p] is
     program -> physical, [p2q] physical -> program (-1 when empty). *)
  q2p : int array;
  p2q : int array;
  mutable log : int array;    (* ops: gate index i >= 0, SWAP -1 - (p * n_phys + p') *)
  mutable n_log : int;
  indeg : int array;          (* remaining unexecuted predecessors per DAG vertex *)
  (* Vertices with indeg 0, not yet emitted: the list {!front} returns,
     reversed, so a vertex joins at the end. Front gates share no qubit,
     so at most n_prog / 2 of them. *)
  front : int array;
  mutable n_front : int;
  mutable emitted : int;      (* two-qubit gates emitted *)
  mutable n_swaps : int;
  pending_1q : int list array; (* per program qubit: 1q gate indices, ascending *)
  (* Hot-path scratch and result buffers, owned by this state and reused
     across rounds; see "Scratch ownership" in DESIGN.md §9. Mark arrays
     are restored to the neutral state before a query returns; result
     buffers are the caller's to read until the next mutation. *)
  partner : int array;
      (* per physical qubit: the physical qubit holding the other operand
         of its front gate, or -1. A program qubit is in at most one front
         gate (two front gates on one qubit would depend on each other),
         so one slot per physical qubit suffices. *)
  (* Dense int-set over the physical qubits with a front gate, delta-
     maintained by [add_front]/[remove_front]/[apply_swap]:
     [active_phys.(0..active_count)] are the members (unordered),
     [active_pos.(p)] is p's slot or -1. Lets {!swap_candidates} walk
     O(front qubits) instead of re-scanning all [n_phys] slots every
     round. *)
  active_phys : int array;
  active_pos : int array;
  mutable active_count : int;
  edge_mark : bool array;     (* per coupler index: candidate marks *)
  cand : int array;           (* candidate pairs, flat: p0; p0'; p1; p1'; ... *)
  sorted : int array;         (* part of the front, ascending (advance, BFS head) *)
  es_seen : bool array;       (* per DAG vertex: extended-set BFS marks *)
  es_buf : int array;         (* extended set, BFS order; also the queue's tail *)
  mutable es_count : int;
  mutable indeg_scratch : int array;  (* lazy indeg copy (by epoch), [||] until used *)
  mutable indeg_epoch : int array;    (* validity epoch of indeg_scratch entries *)
  mutable epoch : int;        (* current remaining_layers epoch *)
  (* Front-generation caches. [front_gen] counts front-layer changes:
     it bumps exactly when {!advance} emits gates (the only path that
     adds or removes front vertices). The lookahead structures below are
     pure functions of the front set and the DAG — never of the mapping —
     so across the swap-only rounds between emissions they are reused
     as-is instead of rebuilt. The [Debug] build counters count actual
     rebuilds, which is how the bench and the hot-path tests prove the
     delta maintenance (builds per round drops below 1). *)
  mutable front_gen : int;
  mutable es_gen : int;       (* front_gen [es_buf] was built for, or -1 *)
  mutable es_size : int;      (* the [size] it was built for *)
  mutable rl_cache : (int * int * int list list) option;
      (* (front_gen, max_layers, result) *)
}

let activate t p =
  if t.active_pos.(p) < 0 then begin
    t.active_pos.(p) <- t.active_count;
    t.active_phys.(t.active_count) <- p;
    t.active_count <- t.active_count + 1
  end

let deactivate t p =
  let i = t.active_pos.(p) in
  if i >= 0 then begin
    let last = t.active_count - 1 in
    let q = t.active_phys.(last) in
    t.active_phys.(i) <- q;
    t.active_pos.(q) <- i;
    t.active_count <- last;
    t.active_pos.(p) <- -1
  end

(* Front bookkeeping: a front gate links the physical qubits of its two
   program qubits in [partner], and both join the active set. *)
let add_front t v =
  let a, b = Dag.pair t.dag v in
  let pa = t.q2p.(a) and pb = t.q2p.(b) in
  t.partner.(pa) <- pb;
  t.partner.(pb) <- pa;
  activate t pa;
  activate t pb

let remove_front t v =
  let a, b = Dag.pair t.dag v in
  let pa = t.q2p.(a) and pb = t.q2p.(b) in
  t.partner.(pa) <- -1;
  t.partner.(pb) <- -1;
  deactivate t pa;
  deactivate t pb

let push_front t v =
  t.front.(t.n_front) <- v;
  t.n_front <- t.n_front + 1;
  add_front t v

(* Insert [v] into the ascending [a.(0 .. n - 1)]: [n] is at most a
   front's size, so insertion sort is the cheap choice. *)
let insert_sorted a n v =
  let i = ref n in
  (* lint: cancel-poll-coverage — insertion step, bounded by the front size *)
  while !i > 0 && a.(!i - 1) > v do
    a.(!i) <- a.(!i - 1);
    decr i
  done;
  a.(!i) <- v

(* Append one op code to the log, doubling it when full. *)
let log_op t code =
  if t.n_log = Array.length t.log then begin
    let bigger = Array.make (2 * t.n_log) 0 in
    Array.blit t.log 0 bigger 0 t.n_log;
    t.log <- bigger
  end;
  t.log.(t.n_log) <- code;
  t.n_log <- t.n_log + 1

let create ~device ~source ~dag ~initial =
  if Mapping.n_program initial <> Circuit.n_qubits source then
    invalid_arg "Route_state.create: mapping size mismatch";
  if Mapping.n_physical initial <> Device.n_qubits device then
    invalid_arg "Route_state.create: device size mismatch";
  (* Routing is ill-posed on a disconnected coupling graph: a gate whose
     qubits sit in different components can never become adjacent, and the
     routers' BFS/candidate machinery would fail deep inside a round
     ([failwith]/[Rng.pick []]) instead of at the boundary. Devices built
     through {!Device.create} are connected by construction; this guards
     states built on permissive constructions. *)
  if not (Qls_graph.Graph.is_connected (Device.graph device)) then
    invalid_arg
      (Printf.sprintf
         "Route_state.create: device %S has a disconnected coupling graph \
          (routing cannot bring cross-component qubits adjacent)"
         (Device.name device));
  let n = Dag.n_gates dag in
  let n_prog = Circuit.n_qubits source in
  let n_ops = Circuit.length source in
  let pending_1q = Array.make (max 1 n_prog) [] in
  for i = n_ops - 1 downto 0 do
    match Circuit.gate source i with
    | Gate.G1 { q; _ } -> pending_1q.(q) <- i :: pending_1q.(q)
    | Gate.G2 _ -> ()
  done;
  let n_phys = Device.n_qubits device in
  let max_front = max 1 (n_prog / 2) in
  let t =
    {
      device;
      source;
      dag;
      succ = Dag.succ_slots dag;
      initial;
      q2p = Mapping.to_array initial;
      p2q = Array.init n_phys (Mapping.occupant initial);
      log = Array.make (n_ops + (n_ops / 2) + 16) 0;  (* gates, then SWAPs *)
      n_log = 0;
      indeg = Array.init n (Dag.in_degree dag);
      front = Array.make max_front 0;
      n_front = 0;
      emitted = 0;
      n_swaps = 0;
      pending_1q;
      partner = Array.make n_phys (-1);
      active_phys = Array.make n_phys 0;
      active_pos = Array.make n_phys (-1);
      active_count = 0;
      edge_mark = Array.make (Device.n_edges device) false;
      cand = Array.make (2 * Device.n_edges device) 0;
      sorted = Array.make max_front 0;
      es_seen = Array.make n false;
      es_buf = Array.make n 0;
      es_count = 0;
      indeg_scratch = [||];
      indeg_epoch = [||];
      epoch = 0;
      front_gen = 0;
      es_gen = -1;
      es_size = 0;
      rl_cache = None;
    }
  in
  for v = n - 1 downto 0 do
    if t.indeg.(v) = 0 then push_front t v
  done;
  t

let dag t = t.dag
let mapping t = Mapping.of_array ~n_physical:(Array.length t.p2q) t.q2p
let phys_table t = t.q2p
let occupant_table t = t.p2q
let front_partner t = t.partner
let front t = List.init t.n_front (fun i -> t.front.(t.n_front - 1 - i))
let front_count t = t.n_front
let front_buffer t = t.front
let front_generation t = t.front_gen
let done_count t = t.emitted
let remaining t = Dag.n_gates t.dag - t.emitted
let finished t = remaining t = 0

let gate_distance t v =
  let a, b = Dag.pair t.dag v in
  (Device.distance_row t.device t.q2p.(a)).(t.q2p.(b))

let executable t v = gate_distance t v = 1

(* Emit the pending single-qubit gates at the head of [pending] that
   precede source position [before]; returns the rest. *)
(* lint: cancel-poll-coverage — walks one qubit's pending list *)
let rec flush_1q t before = function
  | i :: rest when i < before ->
      log_op t i;
      flush_1q t before rest
  | rest -> rest

let emit_gate t v =
  let a, b = Dag.pair t.dag v in
  let ci = Dag.circuit_index t.dag v in
  t.pending_1q.(a) <- flush_1q t ci t.pending_1q.(a);
  t.pending_1q.(b) <- flush_1q t ci t.pending_1q.(b);
  log_op t ci;
  t.emitted <- t.emitted + 1;
  for s = 2 * v to (2 * v) + 1 do
    let w = t.succ.(s) in
    if w >= 0 then begin
      t.indeg.(w) <- t.indeg.(w) - 1;
      if t.indeg.(w) = 0 then push_front t w
    end
  done

(* Move the executable front gates into [sorted], ascending, and close
   the gap they leave, keeping the blocked gates in order; returns how
   many moved. *)
let take_executable t =
  let kept = ref 0 and n = ref 0 in
  for i = 0 to t.n_front - 1 do
    let v = t.front.(i) in
    if executable t v then begin
      insert_sorted t.sorted !n v;
      incr n
    end
    else begin
      t.front.(!kept) <- v;
      incr kept
    end
  done;
  t.n_front <- !kept;
  !n

let advance t =
  (* Emit in rounds: the executable gates of the front, lower DAG index
     first, then those their emission released. A blocked front (the
     common case while a router searches for a SWAP) is answered by one
     scan. *)
  let total = ref 0 in
  let n = ref (take_executable t) in
  (* lint: cancel-poll-coverage — each pass emits at least one gate or exits; bounded by gate count *)
  while !n > 0 do
    for i = 0 to !n - 1 do
      remove_front t t.sorted.(i)
    done;
    for i = 0 to !n - 1 do
      emit_gate t t.sorted.(i)
    done;
    total := !total + !n;
    n := take_executable t
  done;
  if !total > 0 then t.front_gen <- t.front_gen + 1;
  !total

let apply_swap t p p' =
  if not (Device.coupled t.device p p') then
    invalid_arg
      (Printf.sprintf "Route_state.apply_swap: (%d,%d) is not a coupler" p p');
  let a = t.p2q.(p) and b = t.p2q.(p') in
  t.p2q.(p) <- b;
  t.p2q.(p') <- a;
  if a >= 0 then t.q2p.(a) <- p';
  if b >= 0 then t.q2p.(b) <- p;
  (* The occupants of p and p' exchanged, and with them their front
     gates. A gate on exactly (p, p') stays put; otherwise each partner
     now points at its operand's new slot, and the active set follows. *)
  let x = t.partner.(p) and y = t.partner.(p') in
  if x <> p' then begin
    t.partner.(p) <- y;
    t.partner.(p') <- x;
    if x >= 0 then t.partner.(x) <- p';
    if y >= 0 then t.partner.(y) <- p;
    if y >= 0 then activate t p else deactivate t p;
    if x >= 0 then activate t p' else deactivate t p'
  end;
  t.n_swaps <- t.n_swaps + 1;
  log_op t (-1 - ((p * Array.length t.p2q) + p'))

let swap_count t = t.n_swaps

let force_route_first t =
  match List.sort Int.compare (front t) with
  | [] -> ()
  | v :: _ -> (
      let a, b = Dag.pair t.dag v in
      let pa = t.q2p.(a) and pb = t.q2p.(b) in
      match Qls_graph.Bfs.path (Device.graph t.device) pa pb with
      | None | Some [] | Some [ _ ] -> ()
      | Some path ->
          (* Walk qubit [a] along the path until adjacent to [b]. *)
          (* lint: cancel-poll-coverage — one step per coupler of a shortest path *)
          let rec go = function
            | p :: p' :: (_ :: _ as rest) ->
                apply_swap t p p';
                go (p' :: rest)
            | _ -> ()
          in
          go path)

let swap_candidates t =
  Atomic.incr Debug.sc_scans;
  (* Walk only the delta-maintained active set (physical qubits holding a
     front operand) and mark their incident couplers; the marked range is
     then read back in ascending coupler order — the canonical
     [Device.edges] order — clearing each mark on the way. The cost is
     O(front couplers + marked id range), never a re-scan of every qubit.
     [pf_scanned] records the active entries examined so the hot-path
     tests can prove the delta maintenance. *)
  Atomic.fetch_and_add Debug.pf_scanned t.active_count |> ignore;
  let lo = ref max_int and hi = ref (-1) in
  for i = 0 to t.active_count - 1 do
    let inc = Device.incident_edges t.device t.active_phys.(i) in
    for j = 0 to Array.length inc - 1 do
      let e = inc.(j) in
      t.edge_mark.(e) <- true;
      if e < !lo then lo := e;
      if e > !hi then hi := e
    done
  done;
  let n = ref 0 in
  for e = !lo to !hi do
    if t.edge_mark.(e) then begin
      t.edge_mark.(e) <- false;
      let p, p' = Device.edge_at t.device e in
      t.cand.(2 * !n) <- p;
      t.cand.((2 * !n) + 1) <- p';
      incr n
    end
  done;
  !n

let candidate_pairs t = t.cand

(* Queue the unseen successors of [v] onto [es_buf] while the window has
   room. *)
let es_visit t size v =
  for s = 2 * v to (2 * v) + 1 do
    let w = t.succ.(s) in
    if w >= 0 && t.es_count < size && not t.es_seen.(w) then begin
      t.es_seen.(w) <- true;
      t.es_buf.(t.es_count) <- w;
      t.es_count <- t.es_count + 1
    end
  done

let build_extended_set t ~size =
  Atomic.incr Debug.es_builds;
  (* Breadth-first through successors of the front layer, skipping
     already-emitted vertices; nearer successors first, capped at [size].
     The queue is the sorted front followed by [es_buf] itself: every
     discovered vertex is both a result and a later queue entry. Visited
     marks are cleared on the way out (only front + result vertices were
     ever marked). *)
  let seen = t.es_seen and head = t.sorted in
  let n_front = t.n_front in
  for i = 0 to n_front - 1 do
    insert_sorted head i t.front.(i);
    seen.(t.front.(i)) <- true
  done;
  t.es_count <- 0;
  for i = 0 to n_front - 1 do
    es_visit t size head.(i)
  done;
  let next = ref 0 in
  (* lint: cancel-poll-coverage — BFS capped by [size]; each DAG node is queued once *)
  while t.es_count < size && !next < t.es_count do
    es_visit t size t.es_buf.(!next);
    incr next
  done;
  for i = 0 to n_front - 1 do
    seen.(head.(i)) <- false
  done;
  for i = 0 to t.es_count - 1 do
    seen.(t.es_buf.(i)) <- false
  done

(* The extended set depends only on the front set, the DAG, and [size]:
   a swap-only round leaves all three untouched, so the buffer already
   holds exactly what a rebuild would produce. *)
let extended_set t ~size =
  if t.es_gen <> t.front_gen || t.es_size <> size then begin
    build_extended_set t ~size;
    t.es_gen <- t.front_gen;
    t.es_size <- size
  end;
  t.es_count

let extended_buffer t = t.es_buf

(* Candidates within an absolute [1e-12] of the best score tie; the
   goldens pin this window. *)
let pick_tied ~rng scores n =
  let best = ref infinity in
  for i = 0 to n - 1 do
    best := Float.min !best scores.(i)
  done;
  let cap = !best +. 1e-12 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if scores.(i) <= cap then incr count
  done;
  if !count = 0 then -1
  else begin
    (* The [k]-th tied candidate in buffer order: the element [Rng.pick]
       drew from the list of ties, with the same single draw. *)
    let k = ref (Qls_graph.Rng.int rng !count) and chosen = ref (-1) in
    for i = 0 to n - 1 do
      if !chosen < 0 && scores.(i) <= cap then
        if !k = 0 then chosen := i else decr k
    done;
    !chosen
  end

let build_remaining_layers t ~max_layers =
  Atomic.incr Debug.rl_builds;
  (* Simulate ASAP emission on the scratch in-degree array. Entries are
     initialised lazily from [indeg] the first time this epoch touches
     them, so a call costs O(gates reached), never O(all gates) — the old
     implementation paid an [Array.copy] of the whole array per call. *)
  if Array.length t.indeg_epoch = 0 then begin
    t.indeg_scratch <- Array.make (Array.length t.indeg) 0;
    t.indeg_epoch <- Array.make (Array.length t.indeg) 0
  end;
  t.epoch <- t.epoch + 1;
  let ep = t.epoch in
  let layers = ref [] in
  let current = ref (List.sort Int.compare (front t)) in
  let n_layers = ref 0 in
  (* lint: cancel-poll-coverage — bounded by max_layers *)
  while not (List.is_empty !current) && !n_layers < max_layers do
    layers := !current :: !layers;
    incr n_layers;
    let next = ref [] in
    List.iter
      (fun v ->
        for s = 2 * v to (2 * v) + 1 do
          let w = t.succ.(s) in
          if w >= 0 then begin
            if t.indeg_epoch.(w) <> ep then begin
              t.indeg_scratch.(w) <- t.indeg.(w);
              t.indeg_epoch.(w) <- ep
            end;
            t.indeg_scratch.(w) <- t.indeg_scratch.(w) - 1;
            if t.indeg_scratch.(w) = 0 then next := w :: !next
          end
        done)
      !current;
    current := List.sort Int.compare !next
  done;
  List.rev !layers

(* Same front-generation reuse as {!extended_set}: the simulated ASAP
   layers are a function of the unrouted set and the DAG only, both
   unchanged across swap-only rounds. *)
let remaining_layers t ~max_layers =
  match t.rl_cache with
  | Some (gen, ml, cached) when gen = t.front_gen && ml = max_layers -> cached
  | _ ->
      let result = build_remaining_layers t ~max_layers in
      t.rl_cache <- Some (t.front_gen, max_layers, result);
      result

let finish t =
  if not (finished t) then
    invalid_arg "Route_state.finish: two-qubit gates remain";
  Array.iteri
    (fun q pending ->
      List.iter (log_op t) pending;
      t.pending_1q.(q) <- [])
    t.pending_1q;
  let n_phys = Array.length t.p2q in
  let ops = ref [] in
  for i = t.n_log - 1 downto 0 do
    let c = t.log.(i) in
    let op =
      if c >= 0 then Transpiled.Gate c
      else Transpiled.Swap ((-1 - c) / n_phys, (-1 - c) mod n_phys)
    in
    ops := op :: !ops
  done;
  Transpiled.create ~source:t.source ~device:t.device ~initial:t.initial !ops
