module Rng = Qls_graph.Rng
module Pqueue = Qls_graph.Pqueue
module Dag = Qls_circuit.Dag
module Device = Qls_arch.Device
module Mapping = Qls_layout.Mapping

type options = { node_budget : int }

let default_options = { node_budget = 10_000 }

(* [a] extended to length [len], padded with [fill]. Growth is rare
   (amortised over a route), so the generic blit is fine here. *)
let extend a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Collision-free closed set over flat mapping slots.

   The historical key encoded each physical index as one byte
   ([Char.chr (p land 0xff)]): on any device with more than 256 physical
   qubits, distinct mappings silently collided, pruning live states from
   the search and corrupting results. Keys are a Zobrist hash — one fixed
   pseudo-random integer per (program qubit, physical position),
   XOR-combined over the occupied positions, maintained incrementally
   across SWAPs (two XOR pairs) — verified against the stored tables on
   every hash match, so membership is exact at every device size.

   Each expanded mapping is one slot: its program→physical table stored
   flat in [maps] at [s * n_prog], its key in [keys.(s)]. The table is
   open-addressed (linear probing) over slot ids; an entry is live only
   while its stamp equals the current generation, so {!clear} empties
   the set between layers in O(1) and every array is reused for the
   whole route. *)
module Closed = struct
  type t = {
    n_prog : int;
    z : int array; (* (physical p, program q) -> z.(p * n_prog + q) *)
    mutable maps : int array; (* slot s: q2p at [s * n_prog, (s + 1) * n_prog) *)
    mutable keys : int array; (* Zobrist key per slot *)
    mutable slots : int; (* slots in use, all filed but one being added *)
    mutable table : int array; (* slot id per entry *)
    mutable stamp : int array; (* entry live iff stamp = gen *)
    mutable mask : int; (* capacity - 1, capacity a power of two *)
    mutable gen : int;
  }

  (* The Zobrist table is a pure function of the state-space dimensions:
     every search on a device of the same shape derives the same keys, so
     searches stay replayable from their inputs alone. *)
  let create ~n_prog ~n_phys =
    let rng = Rng.create ((n_prog * 0x9e3779b9) lxor n_phys) in
    let z =
      Array.init (max 1 (n_prog * n_phys)) (fun _ ->
          Int64.to_int (Rng.bits64 rng) land max_int)
    in
    let n_slots = 64 and cap = 1024 in
    {
      n_prog;
      z;
      maps = Array.make (n_slots * n_prog) 0;
      keys = Array.make n_slots 0;
      slots = 0;
      table = Array.make cap 0;
      stamp = Array.make cap (-1);
      mask = cap - 1;
      gen = 0;
    }

  let clear t =
    t.gen <- t.gen + 1;
    t.slots <- 0

  let alloc t =
    let s = t.slots in
    if s = Array.length t.keys then begin
      t.maps <- extend t.maps (2 * s * t.n_prog) 0;
      t.keys <- extend t.keys (2 * s) 0
    end;
    t.slots <- s + 1;
    s

  (* A fresh slot holding [m]'s table. *)
  let load t m =
    let s = alloc t in
    let q2p = Mapping.phys_table m and off = s * t.n_prog in
    for q = 0 to t.n_prog - 1 do
      t.maps.(off + q) <- q2p.(q)
    done;
    s

  (* A fresh slot holding slot [src] with positions [p] and [p']
     exchanged: one typed pass, where [Array.blit] plus a fix-up would
     pay [caml_modify] per element on the major-heap [maps]. *)
  let load_swapped t ~src ~p ~p' =
    let s = alloc t in
    let maps = t.maps and a = src * t.n_prog and b = s * t.n_prog in
    for q = 0 to t.n_prog - 1 do
      let pq = maps.(a + q) in
      maps.(b + q) <- (if pq = p then p' else if pq = p' then p else pq)
    done;
    s

  let hash t s =
    let n = t.n_prog in
    let off = s * n in
    let h = ref 0 in
    for q = 0 to n - 1 do
      h := !h lxor t.z.((t.maps.(off + q) * n) + q)
    done;
    !h

  (* Hash after exchanging the contents of positions [p] and [p'] of a
     mapping currently hashing to [h]. [a]/[b] are the program qubits on
     [p]/[p'] before the exchange ([-1] = empty position). *)
  let hash_after_swap t h ~p ~p' ~a ~b =
    let n = t.n_prog in
    let h = if a < 0 then h else h lxor t.z.((p * n) + a) lxor t.z.((p' * n) + a) in
    if b < 0 then h else h lxor t.z.((p' * n) + b) lxor t.z.((p * n) + b)

  (* Slot [s] equals slot [src] with positions [p] and [p'] exchanged
     ([-1] for both: [src] itself). The candidate is compared, never
     materialised. *)
  let equal_swapped t s ~src ~p ~p' =
    let n = t.n_prog and a = src * t.n_prog and b = s * t.n_prog in
    let q = ref 0 in
    (* lint: cancel-poll-coverage — table compare, at most n_prog steps *)
    while
      !q < n
      &&
      let pq = t.maps.(a + !q) in
      (if pq = p then p' else if pq = p' then p else pq) = t.maps.(b + !q)
    do
      incr q
    done;
    !q = n

  (* Table index of the live entry under key [h] equal to slot [src]
     with [p] and [p'] exchanged, or of the empty entry ending the probe
     chain. The A* asks this once per candidate push, and one stamp load
     almost always answers "absent". *)
  let find t h ~src ~p ~p' =
    let i = ref (h land t.mask) in
    (* lint: cancel-poll-coverage — probe chain, bounded by table capacity (load factor <= 1/2) *)
    while
      t.stamp.(!i) = t.gen
      && not
           (t.keys.(t.table.(!i)) = h
           && equal_swapped t t.table.(!i) ~src ~p ~p')
    do
      i := (!i + 1) land t.mask
    done;
    !i

  let mem_swapped t h ~src ~p ~p' = t.stamp.(find t h ~src ~p ~p') = t.gen

  let grow_table t =
    let old_table = t.table and old_stamp = t.stamp in
    let cap = 2 * (t.mask + 1) in
    t.table <- Array.make cap 0;
    t.stamp <- Array.make cap (-1);
    t.mask <- cap - 1;
    for i = 0 to Array.length old_table - 1 do
      if old_stamp.(i) = t.gen then begin
        let s = old_table.(i) in
        let j = ref (t.keys.(s) land t.mask) in
        (* lint: cancel-poll-coverage — probe chain, bounded by table capacity (load factor <= 1/2) *)
        while t.stamp.(!j) = t.gen do
          j := (!j + 1) land t.mask
        done;
        t.table.(!j) <- s;
        t.stamp.(!j) <- t.gen
      end
    done

  (* File the most recently allocated slot under key [h]. If an equal
     mapping is already filed, the slot is released instead and the
     answer is [false]. *)
  let add_last t h =
    let s = t.slots - 1 in
    t.keys.(s) <- h;
    if 2 * t.slots > t.mask + 1 then grow_table t;
    let i = find t h ~src:s ~p:(-1) ~p':(-1) in
    if t.stamp.(i) = t.gen then begin
      t.slots <- s;
      false
    end
    else begin
      t.table.(i) <- s;
      t.stamp.(i) <- t.gen;
      true
    end

  let add t m =
    let s = load t m in
    add_last t (hash t s)

  let mem t m =
    let s = load t m in
    let found = mem_swapped t (hash t s) ~src:s ~p:(-1) ~p':(-1) in
    t.slots <- s;
    found
end

(* Distance excess of a gate set under a mapping. *)
let excess dmat mapping pairs =
  let q2p = Mapping.phys_table mapping in
  List.fold_left (fun acc (x, y) -> acc + dmat.(q2p.(x)).(q2p.(y)) - 1) 0 pairs

(* The search arena: every array one layer search needs, allocated once
   per route and reused by every layer.

   Node [u] is row [u] of [nodes], [node_width] ints: parent node,
   pending swap code ([p * n_phys + p'], [-1] at the root), packed
   scalars (g, layer excess, lookahead excess at 21 bits each — g is
   capped by the node budget and the excesses by the layer's total
   distance, all far below [2^21]), Zobrist key, and the closed-set slot
   of the base mapping the pending swap applies to. Node ids count up
   from 0 in push order every layer, and {!Pqueue} pops FIFO among equal
   keys, so the queue's order is (f, id): the historical (priority, FIFO
   stamp) order exactly. *)
type arena = {
  closed : Closed.t;
  queue : Pqueue.t;
  mutable nodes : int array;
  mutable n_nodes : int;
  occ : int array; (* physical -> program of the expanded mapping; -1 at rest *)
  pmark : bool array; (* positions of target qubits; false at rest *)
  target : int array; (* program qubit -> its target-layer partner; -1 at rest *)
  ahead : int array; (* program qubit -> its lookahead-layer partner; -1 at rest *)
  edges : (int * int) array;
  dmat : int array array;
  n_phys : int;
  mutable pushes : int; (* search work over the route: queue insertions, *)
  mutable pops : int; (* queue pops *)
  mutable exhausted : int; (* and layers that used up the node budget *)
}

let node_width = 5

let create_arena device ~n_prog =
  let n_phys = Device.n_qubits device in
  {
    closed = Closed.create ~n_prog ~n_phys;
    queue = Pqueue.create ();
    nodes = Array.make (1024 * node_width) 0;
    n_nodes = 0;
    occ = Array.make n_phys (-1);
    pmark = Array.make n_phys false;
    target = Array.make n_prog (-1);
    ahead = Array.make n_prog (-1);
    edges = Array.of_list (Device.edges device);
    dmat = Device.distance_matrix device;
    n_phys;
    pushes = 0;
    pops = 0;
    exhausted = 0;
  }

(* Store node [n_nodes] and queue it under 4f, where
   f = g + ceil(lex / 2) + kex / 4: the layer excess halved
   (admissible) plus the lookahead excess halved at QMAP's weight 1/2.
   4f is an integer, so the queue orders nodes by f exactly. *)
let push a ~parent ~pend ~g ~lex ~kex ~zob ~base =
  let id = a.n_nodes in
  let row = id * node_width in
  if row = Array.length a.nodes then a.nodes <- extend a.nodes (2 * row) 0;
  a.n_nodes <- id + 1;
  a.nodes.(row) <- parent;
  a.nodes.(row + 1) <- pend;
  a.nodes.(row + 2) <- g lor (lex lsl 21) lor (kex lsl 42);
  a.nodes.(row + 3) <- zob;
  a.nodes.(row + 4) <- base;
  Pqueue.push a.queue ~key:((4 * (g + ((lex + 1) / 2))) + kex) id

(* Point the qubits of a layer's pairs at each other ([on]) or back at
   [-1]. An ASAP layer is a matching (two gates on one qubit are
   ordered), so a qubit has at most one partner. *)
let link partner pairs ~on =
  List.iter
    (fun (x, y) ->
      partner.(x) <- (if on then y else -1);
      partner.(y) <- (if on then x else -1))
    pairs

(* Excess change of a layer when the program qubits [x] on [p] and [y]
   on [p'] ([-1] = empty position) trade places; [dp]/[dp'] are the
   distance rows of [p]/[p'], [maps] at [off] the pre-swap table. Only
   the pairs at [x] and [y] move: x's partner z stays put while x goes
   from p to p', and likewise for y. A pair on both keeps its distance
   and is skipped. *)
let delta partner dp dp' maps off x y =
  let z = if x < 0 then -1 else partner.(x) in
  let w = if y < 0 then -1 else partner.(y) in
  let pz = if z < 0 || z = y then -1 else maps.(off + z) in
  let pw = if w < 0 || w = x then -1 else maps.(off + w) in
  (if pz < 0 then 0 else dp'.(pz) - dp.(pz))
  + if pw < 0 then 0 else dp.(pw) - dp'.(pw)

(* The SWAP sequence from the root to node [u], first SWAP first. *)
(* lint: cancel-poll-coverage — parent walk, bounded by the node's depth g *)
let rec trail nodes n_phys u acc =
  let pend = nodes.((u * node_width) + 1) in
  if pend < 0 then acc
  else
    trail nodes n_phys nodes.(u * node_width)
      ((pend / n_phys, pend mod n_phys) :: acc)

(* A* from [mapping] to a mapping making every pair in [target_pairs]
   adjacent. Returns the SWAP sequence, or [None] when the node budget is
   exhausted.

   Nodes carry their layer/lookahead distance excess and Zobrist key,
   all maintained by O(1) deltas through the layers' partner tables, so
   neither the heuristic nor the goal test nor the closed-set key ever
   re-walks the whole layer or mapping. A node is (base slot, pending
   swap): its mapping is materialised into a closed-set slot only when
   it is popped and not already closed, so a push costs a node row and a
   bucket append. Expansion order, heuristic values and budget accounting
   are exactly those of the historical recompute-everything search (the
   deltas are integer-exact); the qmap goldens pin this. Transposition
   detection falls out of the closed-set probe at push time: a state
   reachable by several SWAP orders is expanded once. *)
let search a ~opts mapping ~target_pairs ~lookahead_pairs =
  let c = a.closed and n_phys = a.n_phys and dmat = a.dmat in
  let n_prog = c.Closed.n_prog in
  Closed.clear c;
  Pqueue.clear a.queue;
  a.n_nodes <- 0;
  link a.target target_pairs ~on:true;
  link a.ahead lookahead_pairs ~on:true;
  let root = Closed.load c mapping in
  push a ~parent:(-1) ~pend:(-1) ~g:0
    ~lex:(excess dmat mapping target_pairs)
    ~kex:(excess dmat mapping lookahead_pairs)
    ~zob:(Closed.hash c root) ~base:root;
  let mask21 = (1 lsl 21) - 1 in
  (* The budget counts queue insertions. *)
  let pushed = ref 0 in
  let result = ref None in
  let budget_hit = ref false in
  let expanded = ref 0 in
  while Option.is_none !result && (not !budget_hit) && not (Pqueue.is_empty a.queue) do
    (* One search layer can expand far longer than a router round, so the
       per-round checkpoint alone gives poor cancellation latency here;
       poll on a stride that keeps the check off the per-pop hot cost. *)
    incr expanded;
    if !expanded land 1023 = 0 then Qls_cancel.poll ();
    let u = Pqueue.pop a.queue in
    let row = u * node_width in
    let pend = a.nodes.(row + 1) and scalars = a.nodes.(row + 2) in
    let zob = a.nodes.(row + 3) and base = a.nodes.(row + 4) in
    (* A popped node whose mapping is already closed is dropped on a probe
       of (base slot, pending swap), before the mapping is copied out. *)
    let p = pend / n_phys and p' = pend mod n_phys in
    let s =
      if pend < 0 then base
      else if Closed.mem_swapped c zob ~src:base ~p ~p' then -1
      else Closed.load_swapped c ~src:base ~p ~p'
    in
    if s >= 0 && Closed.add_last c zob then begin
      let g = scalars land mask21 in
      let layer_ex = (scalars lsr 21) land mask21 in
      let look_ex = (scalars lsr 42) land mask21 in
      if layer_ex = 0 then result := Some (trail a.nodes n_phys u [])
      else begin
        (* Expansion candidates: couplers touching a physical qubit that
           holds a target-layer qubit, in ascending coupler index — the
           canonical order of the historical collect-and-sort. The
           expansion allocates no slot, so [maps] stays current. *)
        let maps = c.Closed.maps and off = s * n_prog in
        for q = 0 to n_prog - 1 do
          let p = maps.(off + q) in
          a.occ.(p) <- q;
          if a.target.(q) >= 0 then a.pmark.(p) <- true
        done;
        for e = 0 to Array.length a.edges - 1 do
          let p, p' = a.edges.(e) in
          if (a.pmark.(p) || a.pmark.(p')) && not !budget_hit then begin
            let code = (p * n_phys) + p' in
            (* Undoing the pending swap recreates this node's parent,
               which was filed when it was expanded: that probe always
               answers "present", so it is skipped outright — same
               outcome (no push, no budget charge), none of the probe
               cost, every pop. *)
            let x = a.occ.(p) and y = a.occ.(p') in
            let zob' = Closed.hash_after_swap c zob ~p ~p' ~a:x ~b:y in
            if code <> pend && not (Closed.mem_swapped c zob' ~src:s ~p ~p')
            then begin
              incr pushed;
              if !pushed > opts.node_budget then budget_hit := true
              else begin
                let dp = dmat.(p) and dp' = dmat.(p') in
                push a ~parent:u ~pend:code ~g:(g + 1)
                  ~lex:(layer_ex + delta a.target dp dp' maps off x y)
                  ~kex:(look_ex + delta a.ahead dp dp' maps off x y)
                  ~zob:zob' ~base:s
              end
            end
          end
        done;
        for q = 0 to n_prog - 1 do
          let p = maps.(off + q) in
          a.occ.(p) <- -1;
          a.pmark.(p) <- false
        done
      end
    end
  done;
  link a.target target_pairs ~on:false;
  link a.ahead lookahead_pairs ~on:false;
  a.pushes <- a.pushes + a.n_nodes;
  a.pops <- a.pops + !expanded;
  if !budget_hit then a.exhausted <- a.exhausted + 1;
  !result

(* Budget fallback: route the layer's gates one at a time along shortest
   paths. Total on validated (connected) devices: a BFS path always
   exists; on anything else unroutable gates are skipped rather than
   crashed on ({!Route_state.create} rejects such devices up front). *)
let fallback_swaps device mapping target_pairs =
  let m = ref mapping in
  let swaps = ref [] in
  List.iter
    (fun (a, b) ->
      let pa = Mapping.phys !m a and pb = Mapping.phys !m b in
      if (Device.distance_row device pa).(pb) > 1 then
        match Qls_graph.Bfs.path (Device.graph device) pa pb with
        | None | Some [] | Some [ _ ] -> ()
        | Some path ->
            let rec go = function
              | p :: p' :: (_ :: _ as rest) ->
                  swaps := (p, p') :: !swaps;
                  m := Mapping.swap_physical !m p p';
                  go (p' :: rest)
              | _ -> ()
            in
            go path)
    target_pairs;
  List.rev !swaps

let obs_rounds = Qls_obs.counter "router.rounds"
let obs_gates = Qls_obs.counter "router.gates"
let obs_pushes = Qls_obs.counter "router.astar.pushes"
let obs_pops = Qls_obs.counter "router.astar.pops"
let obs_exhausted = Qls_obs.counter "router.astar.exhausted"

let route ?(options = default_options) ?initial device circuit =
  let opts = options in
  let start =
    match initial with
    | Some m -> m
    | None -> Placement.identity device circuit
  in
  let dag = Dag.of_circuit circuit in
  let st = Route_state.create ~device ~source:circuit ~dag ~initial:start in
  let traced = Qls_obs.enabled () in
  let pass_sp =
    if traced then Qls_obs.start ~site:"router" "astar.route" else Qls_obs.none
  in
  let arena = create_arena device ~n_prog:(Mapping.n_program start) in
  let rounds = ref 0 in
  ignore (Route_state.advance st);
  while not (Route_state.finished st) do
    incr rounds;
    (* Deadline/heartbeat checkpoint: one per routed layer. *)
    Qls_cancel.poll ();
    let layer_sp =
      if traced then Qls_obs.start ~site:"router" "astar.layer"
      else Qls_obs.none
    in
    let layers = Route_state.remaining_layers st ~max_layers:2 in
    let target, lookahead =
      match layers with
      | [] -> ([], [])
      | [ l0 ] -> (l0, [])
      | l0 :: l1 :: _ -> (l0, l1)
    in
    let target_pairs = List.map (Dag.pair dag) target in
    let lookahead_pairs = List.map (Dag.pair dag) lookahead in
    let mapping = Route_state.mapping st in
    let swaps =
      match search arena ~opts mapping ~target_pairs ~lookahead_pairs with
      | Some swaps -> swaps
      | None -> fallback_swaps device mapping target_pairs
    in
    List.iter (fun (p, p') -> Route_state.apply_swap st p p') swaps;
    let emitted = Route_state.advance st in
    if traced then
      Qls_obs.stop layer_sp
        ~attrs:
          [
            ("emitted", Qls_obs.Int emitted);
            ("swaps", Qls_obs.Int (List.length swaps));
          ];
    (* The A* goal guarantees the whole layer became executable; the
       fallback guarantees at least one gate did (devices that could
       starve it are rejected by {!Route_state.create}). *)
    if emitted = 0 then
      failwith "Astar_router: no progress after layer search (bug)"
  done;
  Qls_obs.add obs_rounds !rounds;
  Qls_obs.add obs_gates (Route_state.done_count st);
  Qls_obs.add obs_pushes arena.pushes;
  Qls_obs.add obs_pops arena.pops;
  Qls_obs.add obs_exhausted arena.exhausted;
  if traced then
    Qls_obs.stop pass_sp
      ~attrs:
        [
          ("rounds", Qls_obs.Int !rounds);
          ("swaps", Qls_obs.Int (Route_state.swap_count st));
          ("pushes", Qls_obs.Int arena.pushes);
          ("pops", Qls_obs.Int arena.pops);
          ("exhausted", Qls_obs.Int arena.exhausted);
        ];
  Route_state.finish st

let router ?(options = default_options) () =
  {
    Router.name = "qmap";
    route = (fun ?initial device circuit -> route ~options ?initial device circuit);
  }
