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

(* Collision-free closed set over diff slots.

   The historical key encoded each physical index as one byte
   ([Char.chr (p land 0xff)]): on any device with more than 256 physical
   qubits, distinct mappings silently collided, pruning live states from
   the search and corrupting results. Keys are a Zobrist hash — one fixed
   pseudo-random integer per (program qubit, physical position),
   XOR-combined over the occupied positions, maintained incrementally
   across SWAPs (two XOR pairs) — verified against the stored diff on
   every hash match, so membership is exact at every device size.

   A layer search's mappings all sit a few SWAPs from the mapping the
   layer started from, its root. So a slot stores only where its mapping
   differs from the root: (program qubit, position) pairs, at most two
   per SWAP of depth, appended to one pair arena. The set also holds one
   work mapping, the root plus the diff of one slot; {!focus} moves it
   from slot to slot by taking one diff off and putting the other on.
   A probe reads a filed diff against the work mapping with a candidate
   SWAP applied. Two mappings whose diffs have equal lengths, one
   agreeing with every pair of the other's diff, are equal; and a
   candidate's diff length follows from its two moving qubits
   ({!moved}), so no candidate is ever built.

   The table is open-addressed (linear probing) over slot ids; an entry
   is live only while its stamp equals the current generation, so
   {!reset} empties the set between layers with one increment and every
   array is reused for the whole route. *)
module Closed = struct
  type t = {
    n_prog : int;
    z : int array; (* (physical p, program q) -> z.(p * n_prog + q) *)
    root : int array; (* program -> physical of the root mapping *)
    q2p : int array; (* the work mapping: the root plus slot [cur]'s diff *)
    p2q : int array; (* its inverse, -1 on an empty position *)
    mutable cur : int; (* -1: the work mapping is the root *)
    mutable pairs : int array; (* pair k: program qubit at 2k, position at 2k + 1 *)
    mutable bounds : int array; (* slot s: pairs [bounds.(s), bounds.(s + 1)) *)
    mutable keys : int array; (* Zobrist key per slot *)
    mutable slots : int; (* slots filed, always below [Array.length keys] *)
    mutable table : int array; (* slot id per entry *)
    mutable stamp : int array; (* entry live iff stamp = gen *)
    mutable mask : int; (* capacity - 1, capacity a power of two *)
    mutable gen : int;
  }

  (* The Zobrist table is a pure function of the state-space dimensions:
     every search on a device of the same shape derives the same keys, so
     searches stay replayable from their inputs alone. A fresh set's root
     is the identity placement. *)
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
      root = Array.init n_prog Fun.id;
      q2p = Array.init n_prog Fun.id;
      p2q = Array.init n_phys (fun p -> if p < n_prog then p else -1);
      cur = -1;
      pairs = Array.make (8 * n_slots) 0;
      bounds = Array.make (n_slots + 1) 0;
      keys = Array.make n_slots 0;
      slots = 0;
      table = Array.make cap 0;
      stamp = Array.make cap (-1);
      mask = cap - 1;
      gen = 0;
    }

  (* Empty the set and make [m] its root and its work mapping. *)
  let reset t m =
    let q2p = Mapping.phys_table m in
    t.gen <- t.gen + 1;
    t.slots <- 0;
    t.cur <- -1;
    for p = 0 to Array.length t.p2q - 1 do
      t.p2q.(p) <- -1
    done;
    for q = 0 to t.n_prog - 1 do
      let p = q2p.(q) in
      t.root.(q) <- p;
      t.q2p.(q) <- p;
      t.p2q.(p) <- q
    done

  (* Zobrist key of the work mapping, over its occupied positions: once
     per layer for the root, and on the path of {!add} and {!mem}. *)
  let hash t =
    let n = t.n_prog in
    let h = ref 0 in
    for p = 0 to Array.length t.p2q - 1 do
      let q = t.p2q.(p) in
      if q >= 0 then h := !h lxor t.z.((p * n) + q)
    done;
    !h

  (* Hash after exchanging the contents of positions [p] and [p'] of a
     mapping currently hashing to [h]. [a]/[b] are the program qubits on
     [p]/[p'] before the exchange ([-1] = empty position). *)
  let hash_after_swap t h ~p ~p' ~a ~b =
    let n = t.n_prog in
    let h = if a < 0 then h else h lxor t.z.((p * n) + a) lxor t.z.((p' * n) + a) in
    if b < 0 then h else h lxor t.z.((p' * n) + b) lxor t.z.((p * n) + b)

  (* Diff length of slot [s] ([-1]: the root). *)
  let length t s = if s < 0 then 0 else t.bounds.(s + 1) - t.bounds.(s)

  (* Move the work mapping from the root to slot [s]'s mapping: vacate
     the root positions of the qubits that moved, then place them. *)
  let enter t s =
    for k = t.bounds.(s) to t.bounds.(s + 1) - 1 do
      t.p2q.(t.root.(t.pairs.(2 * k))) <- -1
    done;
    for k = t.bounds.(s) to t.bounds.(s + 1) - 1 do
      let q = t.pairs.(2 * k) and p = t.pairs.((2 * k) + 1) in
      t.q2p.(q) <- p;
      t.p2q.(p) <- q
    done

  (* And back: vacate the diff's positions, then put its qubits home. *)
  let leave t s =
    for k = t.bounds.(s) to t.bounds.(s + 1) - 1 do
      t.p2q.(t.pairs.((2 * k) + 1)) <- -1
    done;
    for k = t.bounds.(s) to t.bounds.(s + 1) - 1 do
      let q = t.pairs.(2 * k) in
      let p = t.root.(q) in
      t.q2p.(q) <- p;
      t.p2q.(p) <- q
    done

  (* Put the work mapping on slot [s] ([-1]: the root), in the length of
     the two diffs; nothing to do when it is there already. *)
  let focus t s =
    if s <> t.cur then begin
      if t.cur >= 0 then leave t t.cur;
      if s >= 0 then enter t s;
      t.cur <- s
    end

  (* Change in a mapping's diff length when qubit [q] ([-1]: none) moves
     from [p] to [p']. *)
  let moved t q ~p ~p' =
    if q < 0 then 0
    else
      let r = t.root.(q) in
      if r = p then 1 else if r = p' then -1 else 0

  (* Slot [s] holds the work mapping, whose diff has [len] pairs, with
     [x] moved from [p] to [p'] and [y] from [p'] to [p] ([-1]: no such
     qubit, and no move at all for [p] = [p'] = -1): equal diff lengths,
     and every filed pair's qubit sits on its position. *)
  let holds t s ~len ~x ~p ~y ~p' =
    let hi = t.bounds.(s + 1) in
    let k = ref t.bounds.(s) in
    hi - !k = len + moved t x ~p ~p' + moved t y ~p:p' ~p':p
    &&
    begin
      (* lint: cancel-poll-coverage — diff compare, at most two steps per SWAP of depth *)
      while
        !k < hi
        &&
        let q = t.pairs.(2 * !k) in
        (if q = x then p' else if q = y then p else t.q2p.(q))
        = t.pairs.((2 * !k) + 1)
      do
        incr k
      done;
      !k = hi
    end

  (* Table index of the live entry under key [h] that {!holds} the
     probed mapping, or of the empty entry ending the probe chain. The
     A* asks this once per candidate push and once per pop, and one
     stamp load almost always answers "absent": the probed mapping's
     diff length is only worked out on a key match. *)
  let find t h ~len ~x ~p ~y ~p' =
    let i = ref (h land t.mask) in
    (* lint: cancel-poll-coverage — probe chain, bounded by table capacity (load factor <= 1/2) *)
    while
      t.stamp.(!i) = t.gen
      && not (t.keys.(t.table.(!i)) = h && holds t t.table.(!i) ~len ~x ~p ~y ~p')
    do
      i := (!i + 1) land t.mask
    done;
    !i

  let live t i = t.stamp.(i) = t.gen

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

  (* Room for [n] more pairs past the last slot's. *)
  let reserve t n =
    let need = 2 * (t.bounds.(t.slots) + n) in
    if need > Array.length t.pairs then
      t.pairs <- extend t.pairs (max need (2 * Array.length t.pairs)) 0

  let put t k q p =
    t.pairs.(2 * k) <- q;
    t.pairs.((2 * k) + 1) <- p

  (* File the pairs from the last slot's end to [top] as slot [slots]
     under key [h], at the empty table entry [i] that {!find} returned. *)
  let file t i h ~top =
    let s = t.slots in
    t.keys.(s) <- h;
    t.bounds.(s + 1) <- top;
    t.slots <- s + 1;
    if t.slots = Array.length t.keys then begin
      t.keys <- extend t.keys (2 * t.slots) 0;
      t.bounds <- extend t.bounds ((2 * t.slots) + 1) 0
    end;
    t.table.(i) <- s;
    t.stamp.(i) <- t.gen;
    if 2 * t.slots > t.mask + 1 then grow_table t

  (* File the work mapping with [x] moved from [p] to [p'] and [y] from
     [p'] to [p] under key [h] at entry [i], and apply that SWAP to the
     work mapping, which then holds the new slot. The diff is the work
     slot's less [x] and [y], then each of them if it now sits off its
     root position. For [p] = [p'] = [-1] nothing moves. *)
  let file_swapped t i h ~x ~p ~y ~p' =
    let lo = if t.cur < 0 then 0 else t.bounds.(t.cur) in
    let hi = if t.cur < 0 then 0 else t.bounds.(t.cur + 1) in
    reserve t (hi - lo + 2);
    let top = ref t.bounds.(t.slots) in
    for k = lo to hi - 1 do
      let q = t.pairs.(2 * k) in
      if q <> x && q <> y then begin
        put t !top q t.pairs.((2 * k) + 1);
        incr top
      end
    done;
    if x >= 0 && t.root.(x) <> p' then begin
      put t !top x p';
      incr top
    end;
    if y >= 0 && t.root.(y) <> p then begin
      put t !top y p;
      incr top
    end;
    t.cur <- t.slots;
    file t i h ~top:!top;
    if p >= 0 then Mapping.swap_tables ~q2p:t.q2p ~p2q:t.p2q p p'

  (* Stage [m]'s diff from the root past the last slot, read against
     the work mapping once {!focus} has put it on the root, then focus
     on the staged diff and probe: the path of {!add} and {!mem}, one
     pass over [m]'s table where the search pays the diff's length. *)
  let stage t m =
    let q2p = Mapping.phys_table m in
    focus t (-1);
    reserve t t.n_prog;
    let s = t.slots in
    let top = ref t.bounds.(s) in
    for q = 0 to t.n_prog - 1 do
      if q2p.(q) <> t.q2p.(q) then begin
        put t !top q q2p.(q);
        incr top
      end
    done;
    t.bounds.(s + 1) <- !top;
    focus t s;
    let h = hash t in
    (h, find t h ~len:(length t s) ~x:(-1) ~p:(-1) ~y:(-1) ~p':(-1))

  let add t m =
    let h, i = stage t m in
    let fresh = not (live t i) in
    if fresh then file t i h ~top:t.bounds.(t.slots + 1) else focus t (-1);
    fresh

  let mem t m =
    let _, i = stage t m in
    focus t (-1);
    live t i
end

(* Distance excess of a gate set under a mapping. *)
let excess dmat mapping pairs =
  let q2p = Mapping.phys_table mapping in
  List.fold_left (fun acc (x, y) -> acc + dmat.(q2p.(x)).(q2p.(y)) - 1) 0 pairs

(* The search arena: every array one layer search needs, allocated once
   per route and reused by every layer.

   Node [u] is row [u] of [nodes], [node_width] ints: parent node,
   the coupler of the pending swap ([-1] at the root), packed
   scalars (g, layer excess, lookahead excess at 21 bits each — g is
   capped by the node budget and the excesses by the layer's total
   distance, all far below [2^21]), Zobrist key, and the closed-set slot
   of the base mapping the pending swap applies to ([-1]: the root).
   Node ids count up from 0 in push order every layer, and {!Pqueue}
   pops FIFO among equal keys, so the queue's order is (f, id): the
   historical (priority, FIFO stamp) order exactly. *)
type arena = {
  closed : Closed.t;
  queue : Pqueue.t;
  mutable nodes : int array;
  mutable n_nodes : int;
  target : int array; (* program qubit -> its target-layer partner; -1 at rest *)
  ahead : int array; (* program qubit -> its lookahead-layer partner; -1 at rest *)
  movers : int array; (* the target layer's qubits, [n_movers] of them *)
  mutable n_movers : int;
  cands : int array; (* one expansion's candidate couplers, sorted *)
  eu : int array; (* coupler -> its first endpoint, *)
  ev : int array; (* and its second, in canonical orientation *)
  incident : int array array; (* position -> its couplers, ascending *)
  dmat : int array array;
  mutable pushes : int; (* search work over the route: queue insertions, *)
  mutable pops : int; (* queue pops *)
  mutable exhausted : int; (* and layers that used up the node budget *)
}

let node_width = 5

let create_arena device ~n_prog =
  let n_phys = Device.n_qubits device and n_edges = Device.n_edges device in
  {
    closed = Closed.create ~n_prog ~n_phys;
    queue = Pqueue.create ();
    nodes = Array.make (1024 * node_width) 0;
    n_nodes = 0;
    target = Array.make n_prog (-1);
    ahead = Array.make n_prog (-1);
    movers = Array.make n_prog 0;
    n_movers = 0;
    (* a coupler is listed once per endpoint at most *)
    cands = Array.make (2 * n_edges) 0;
    eu = Array.init n_edges (fun e -> fst (Device.edge_at device e));
    ev = Array.init n_edges (fun e -> snd (Device.edge_at device e));
    incident = Array.init n_phys (Device.incident_edges device);
    dmat = Device.distance_matrix device;
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
   distance rows of [p]/[p'], [q2p] the pre-swap table. Only the pairs
   at [x] and [y] move: x's partner z stays put while x goes from p to
   p', and likewise for y. A pair on both keeps its distance and is
   skipped. *)
let delta partner dp dp' q2p x y =
  let z = if x < 0 then -1 else partner.(x) in
  let w = if y < 0 then -1 else partner.(y) in
  let pz = if z < 0 || z = y then -1 else q2p.(z) in
  let pw = if w < 0 || w = x then -1 else q2p.(w) in
  (if pz < 0 then 0 else dp'.(pz) - dp.(pz))
  + if pw < 0 then 0 else dp.(pw) - dp'.(pw)

(* The SWAP sequence from the root to node [u], first SWAP first. *)
(* lint: cancel-poll-coverage — parent walk, bounded by the node's depth g *)
let rec trail a u acc =
  let pend = a.nodes.((u * node_width) + 1) in
  if pend < 0 then acc
  else trail a a.nodes.(u * node_width) ((a.eu.(pend), a.ev.(pend)) :: acc)

(* Merge the couplers at the target qubits' positions in the work
   mapping into [a.cands], ascending; a coupler between two target
   qubits appears twice, side by side. Each position's list is already
   ascending, so it is merged in from the back, moving each larger
   coupler once. Returns the count. *)
let candidates a q2p =
  let cands = a.cands in
  let n = ref 0 in
  for i = 0 to a.n_movers - 1 do
    let inc = a.incident.(q2p.(a.movers.(i))) in
    let k = ref (!n - 1) and j = ref (Array.length inc - 1) in
    n := !n + Array.length inc;
    (* lint: cancel-poll-coverage — one merge, bounded by the candidate count *)
    while !j >= 0 do
      if !k >= 0 && cands.(!k) > inc.(!j) then begin
        cands.(!k + !j + 1) <- cands.(!k);
        decr k
      end
      else begin
        cands.(!k + !j + 1) <- inc.(!j);
        decr j
      end
    done
  done;
  !n

(* A* from [mapping] to a mapping making every pair in [target_pairs]
   adjacent. Returns the SWAP sequence, or [None] when the node budget is
   exhausted.

   Nodes carry their layer/lookahead distance excess and Zobrist key,
   all maintained by O(1) deltas through the layers' partner tables, so
   neither the heuristic nor the goal test nor the closed-set key ever
   re-walks the whole layer or mapping. A node is (base slot, pending
   swap), so a push costs a node row and a bucket append. A pop moves
   the closed set's work mapping to the base slot's mapping (in the
   length of the two diffs involved; consecutive pops often share a
   base, and then it stays put), probes the pending swap on top of it
   and, when the mapping is new, files it and applies the swap, so the
   expansion reads the node's mapping from the work tables. Expansion
   order, heuristic values and budget accounting are exactly those of
   the historical recompute-everything search (the deltas are
   integer-exact); the qmap goldens pin this. Transposition detection
   falls out of the closed-set probe at push time: a state reachable by
   several SWAP orders is expanded once. *)
let search a ~opts mapping ~target_pairs ~lookahead_pairs =
  let c = a.closed and dmat = a.dmat in
  let q2p = c.Closed.q2p and p2q = c.Closed.p2q in
  Closed.reset c mapping;
  Pqueue.clear a.queue;
  a.n_nodes <- 0;
  link a.target target_pairs ~on:true;
  link a.ahead lookahead_pairs ~on:true;
  a.n_movers <- 0;
  List.iter
    (fun (x, y) ->
      a.movers.(a.n_movers) <- x;
      a.movers.(a.n_movers + 1) <- y;
      a.n_movers <- a.n_movers + 2)
    target_pairs;
  push a ~parent:(-1) ~pend:(-1) ~g:0
    ~lex:(excess dmat mapping target_pairs)
    ~kex:(excess dmat mapping lookahead_pairs)
    ~zob:(Closed.hash c) ~base:(-1);
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
       of its base mapping with the pending swap applied. *)
    Closed.focus c base;
    let p = if pend < 0 then -1 else a.eu.(pend) in
    let p' = if pend < 0 then -1 else a.ev.(pend) in
    let x = if pend < 0 then -1 else p2q.(p) in
    let y = if pend < 0 then -1 else p2q.(p') in
    let i = Closed.find c zob ~len:(Closed.length c base) ~x ~p ~y ~p' in
    if not (Closed.live c i) then begin
      Closed.file_swapped c i zob ~x ~p ~y ~p';
      let s = c.Closed.cur in
      let len = Closed.length c s in
      let g = scalars land mask21 in
      let layer_ex = (scalars lsr 21) land mask21 in
      let look_ex = (scalars lsr 42) land mask21 in
      if layer_ex = 0 then result := Some (trail a u [])
      else begin
        (* Expansion candidates: couplers touching a physical qubit that
           holds a target-layer qubit, in ascending coupler index — the
           canonical order of the historical collect-and-sort. *)
        let n = candidates a q2p in
        for j = 0 to n - 1 do
          let e = a.cands.(j) in
          if (j = 0 || a.cands.(j - 1) <> e) && not !budget_hit then begin
            let p = a.eu.(e) and p' = a.ev.(e) in
            (* Undoing the pending swap recreates this node's parent,
               which was filed when it was expanded: that probe always
               answers "present", so it is skipped outright — same
               outcome (no push, no budget charge), none of the probe
               cost, every pop. *)
            let x = p2q.(p) and y = p2q.(p') in
            let zob' = Closed.hash_after_swap c zob ~p ~p' ~a:x ~b:y in
            if
              e <> pend
              && not (Closed.live c (Closed.find c zob' ~len ~x ~p ~y ~p'))
            then begin
              incr pushed;
              if !pushed > opts.node_budget then budget_hit := true
              else begin
                let dp = dmat.(p) and dp' = dmat.(p') in
                push a ~parent:u ~pend:e ~g:(g + 1)
                  ~lex:(layer_ex + delta a.target dp dp' q2p x y)
                  ~kex:(look_ex + delta a.ahead dp dp' q2p x y)
                  ~zob:zob' ~base:s
              end
            end
          end
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
            (* lint: cancel-poll-coverage — one step per coupler of a shortest path *)
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
