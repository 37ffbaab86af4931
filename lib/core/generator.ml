module Graph = Qls_graph.Graph
module Rng = Qls_graph.Rng
module Bfs = Qls_graph.Bfs
module Gate = Qls_circuit.Gate
module Circuit = Qls_circuit.Circuit
module Device = Qls_arch.Device
module Mapping = Qls_layout.Mapping
module Transpiled = Qls_layout.Transpiled
module Verifier = Qls_layout.Verifier

type config = {
  n_swaps : int;
  gate_budget : int;
  single_qubit_ratio : float;
  saturation_cap : int;
  seed : int;
}

let default_config =
  {
    n_swaps = 1;
    gate_budget = 0;
    single_qubit_ratio = 0.0;
    saturation_cap = max_int;
    seed = 0;
  }

(* Pre-materialisation operation: program-level gates and the designed
   SWAPs, tagged with the backbone section they belong to (0 = filler). *)
type pre_op =
  | Two of { pair : int * int; section : int; special : bool }
  | One of Gate.t
  | Swap_op of (int * int)

let prog mapping p =
  match Mapping.prog mapping p with
  | Some q -> q
  | None -> assert false (* |Q| = |P|: every position is occupied *)

let canon (u, v) = if u < v then (u, v) else (v, u)

module PS = Set.Make (struct
  type t = int * int

  let compare (a, b) (c, d) =
    match Int.compare a c with 0 -> Int.compare b d | n -> n
end)

(* Pick the designed SWAP for a section: an oriented coupler (p, p') such
   that the program qubit on [p] (the anchor) gains a new neighbour when
   the swap fires, and such that the saturation requirement stays within
   [cap] positions. Returns (p, p', target position). *)
let choose_swap rng device ~cap =
  let g = Device.graph device in
  let oriented =
    List.concat_map (fun (p, p') -> [ (p, p'); (p', p) ]) (Graph.edges g)
  in
  let oriented = Rng.shuffle_list rng oriented in
  (* above.(d): the device qubits of degree greater than d, counted
     once per call rather than once per option *)
  let above = Array.make (Device.max_degree device + 1) 0 in
  for x = 0 to Device.n_qubits device - 1 do
    let d = Device.degree device x in
    if d > 0 then above.(d - 1) <- above.(d - 1) + 1
  done;
  for d = Array.length above - 2 downto 0 do
    above.(d) <- above.(d) + above.(d + 1)
  done;
  let feasible (p, p') =
    let nbrs_p = Device.neighbors device p in
    let t_candidates =
      List.filter
        (fun x -> x <> p && not (List.mem x nbrs_p))
        (Device.neighbors device p')
    in
    match t_candidates with
    | [] -> None
    | cs -> Some (p, p', Rng.pick rng cs, above.(Device.degree device p))
  in
  let options = List.filter_map feasible oriented in
  match options with
  | [] ->
      invalid_arg
        "Generator: device coupling graph admits no forced SWAP (complete graph)"
  | _ -> (
      match List.find_opt (fun (_, _, _, sat) -> sat <= cap) options with
      | Some (p, p', t, _) -> (p, p', t)
      | None ->
          (* No anchor satisfies the cap; take the least-saturating one so
             generation still succeeds on exotic topologies. *)
          let best =
            List.fold_left
              (fun acc o ->
                match acc with
                | Some (_, _, _, s) ->
                    let _, _, _, s' = o in
                    if s' < s then Some o else acc
                | None -> Some o)
              None options
          in
          (match best with
          | Some (p, p', t, _) -> (p, p', t)
          | None -> assert false))

type raw_section = {
  rs_swap : int * int;
  rs_anchor : int;
  rs_target : int;
  rs_gates : (int * int) list; (* ordered non-special gates, pre-SWAP *)
  rs_special : int * int;
  rs_before : Mapping.t;
  rs_after : Mapping.t;
}

(* Components of the edge-bearing part of an edge set over program
   qubits. *)
let edge_components n_prog edges =
  let g = Graph.create n_prog (PS.elements edges) in
  List.filter
    (fun comp -> List.exists (fun v -> Graph.degree g v > 0) comp)
    (Graph.components g)

(* Connect all edge-bearing components to the one containing [anchor] by
   adding connector gates along shortest physical paths (each connector is
   a coupler under [mapping], hence executable). *)
let connect_components device mapping ~anchor ~n_prog edges =
  let coupling = Device.graph device in
  let edges = ref edges in
  (* lint: cancel-poll-coverage — each pass merges a component into the anchor's: at most n_prog passes *)
  let rec loop () =
    let comps = edge_components n_prog (!edges) in
    let main, others =
      List.partition (fun comp -> List.mem anchor comp) comps
    in
    match (main, others) with
    | _, [] -> ()
    | [ main ], other :: _ ->
        let main_pos = List.map (Mapping.phys mapping) main in
        let other_pos = List.map (Mapping.phys mapping) other in
        (* Multi-source BFS from the main component's positions to the
           nearest position of the other component. *)
        let n = Graph.n_vertices coupling in
        let parent = Array.make n (-1) in
        let seen = Array.make n false in
        let queue = Queue.create () in
        List.iter
          (fun s ->
            if not seen.(s) then begin
              seen.(s) <- true;
              Queue.add s queue
            end)
          main_pos;
        let hit = ref (-1) in
        (* lint: cancel-poll-coverage — BFS: each device qubit is queued at most once *)
        while !hit < 0 && not (Queue.is_empty queue) do
          let v = Queue.pop queue in
          if List.mem v other_pos then hit := v
          else
            List.iter
              (fun w ->
                if not seen.(w) then begin
                  seen.(w) <- true;
                  parent.(w) <- v;
                  Queue.add w queue
                end)
              (Graph.neighbors coupling v)
        done;
        assert (!hit >= 0);
        (* Walk the path back, adding each coupler as a connector gate. *)
        (* lint: cancel-poll-coverage — follows BFS parents back to a source: at most one step per device qubit *)
        let rec walk v =
          let u = parent.(v) in
          if u >= 0 then begin
            edges := PS.add (canon (prog mapping u, prog mapping v)) !edges;
            walk u
          end
        in
        walk !hit;
        loop ()
    | _ -> assert false
  in
  loop ();
  !edges

let build_section rng device mapping ~cap ~prev_special =
  let n_prog = Device.n_qubits device in
  let p, p', t_pos = choose_swap rng device ~cap in
  let anchor = prog mapping p in
  let target = prog mapping t_pos in
  let d = Device.degree device p in
  (* Anchor star: the anchor interacts with all its current neighbours. *)
  let star =
    List.map (fun x -> canon (anchor, prog mapping x)) (Device.neighbors device p)
  in
  (* Saturation: program qubits on higher-degree positions interact with
     all their neighbours (paper §III-A). *)
  let sat = ref [] in
  for x = 0 to n_prog - 1 do
    if Device.degree device x > d then
      List.iter
        (fun y -> sat := canon (prog mapping x, prog mapping y) :: !sat)
        (Device.neighbors device x)
  done;
  let base = PS.of_list (star @ !sat) in
  let base =
    match prev_special with
    | None -> base
    | Some pair -> PS.add (canon pair) base
  in
  let edges_all = connect_components device mapping ~anchor ~n_prog base in
  let h = Graph.create n_prog (PS.elements edges_all) in
  let no_skip _ _ = false in
  let bwd = Bfs.edge_order h ~sources:[ anchor; target ] ~skip:no_skip in
  assert (List.length bwd = Graph.n_edges h);
  let seq =
    match prev_special with
    | None -> List.rev bwd
    | Some (pa, pt) ->
        let fwd = Bfs.edge_order h ~sources:[ pa; pt ] ~skip:no_skip in
        assert (List.length fwd = Graph.n_edges h);
        ((pa, pt) :: fwd) @ List.rev bwd
  in
  let special = (anchor, target) in
  let after = Mapping.swap_physical mapping p p' in
  (* Structural sanity: every ordered gate is executable now; the special
     gate only after the SWAP. *)
  List.iter
    (fun (u, v) ->
      assert (Device.coupled device (Mapping.phys mapping u) (Mapping.phys mapping v)))
    seq;
  assert (
    not (Device.coupled device (Mapping.phys mapping anchor) (Mapping.phys mapping target)));
  assert (
    Device.coupled device (Mapping.phys after anchor) (Mapping.phys after target));
  {
    rs_swap = (p, p');
    rs_anchor = anchor;
    rs_target = target;
    rs_gates = seq;
    rs_special = special;
    rs_before = mapping;
    rs_after = after;
  }

(* The filler pairs of a block under one of its mappings: every coupler
   read through the mapping, and the couplers touching the section's
   [active] qubits, both in the device's coupler order. *)
type filler_pairs = {
  all : (int * int) array;
  preferred : (int * int) array;
}

let filler_pairs device mapping ~active =
  let all =
    Array.init (Device.n_edges device) (fun i ->
        let x, y = Device.edge_at device i in
        (prog mapping x, prog mapping y))
  in
  let touches (u, v) = active.(u) || active.(v) in
  { all; preferred = Array.of_seq (Seq.filter touches (Array.to_seq all)) }

(* Pick a filler pair, biased (3:1) towards pairs touching the section's
   active qubits so fillers cluster around the routing action — the
   paper's Fig. 5 instance shows the same distractor pair recurring
   throughout the extended set, which is what makes equal-weight
   lookahead misfire (§IV-C). *)
let pick_filler_pair rng { all; preferred } =
  if Array.length preferred = 0 then Rng.pick_array rng all
  else if Rng.int rng 4 < 3 then Rng.pick_array rng preferred
  else Rng.pick_array rng all

(* One block of the instance under construction. Block i in 1..n holds
   section i's ops in order (its gates, its SWAP, its special gate);
   blocks 0 and n+1 exist only to host fillers. [ops] holds the block's
   ops as they arrived and [order] their indices in the block's current
   order, so an insertion shifts ints, not pointers. *)
type block = {
  mutable ops : pre_op array;  (* by arrival; the first [len] are live *)
  mutable order : int array;  (* indices into [ops], in block order *)
  mutable len : int;
  mutable swap_rank : int;  (* the SWAP's current rank; -1 if none *)
  entry : filler_pairs Lazy.t;  (* pairs executable before the SWAP *)
  exit : filler_pairs Lazy.t;  (* pairs executable after it *)
}

let insert rng b ~lo ~hi op =
  (* Insert [op] at a uniform rank within [lo, hi]. *)
  let rank = lo + Rng.int rng (hi - lo + 1) in
  if b.len = Array.length b.order then begin
    let cap = max 16 (2 * b.len) in
    let ops = Array.make cap op and order = Array.make cap 0 in
    Array.blit b.ops 0 ops 0 b.len;
    Array.blit b.order 0 order 0 b.len;
    b.ops <- ops;
    b.order <- order
  end;
  b.ops.(b.len) <- op;
  (* A loop, not [Array.blit]: on an int array it stores without the
     write barrier [Array.blit] pays per element once a block is in the
     major heap. *)
  let order = b.order in
  for i = b.len downto rank + 1 do
    order.(i) <- order.(i - 1)
  done;
  order.(rank) <- b.len;
  b.len <- b.len + 1;
  if rank <= b.swap_rank then b.swap_rank <- b.swap_rank + 1

(* Insert one filler gate. A filler placed before the section's SWAP must
   be executable under the section's entry mapping, one placed after it
   under the exit mapping (paper §III-B: "(q2, q7) can only be inserted
   before g4"). *)
let insert_filler rng b =
  let pairs, lo, hi =
    if b.swap_rank < 0 then
      (* Filler-only block: a single mapping governs the whole span. *)
      (b.entry, 0, b.len)
    else if Rng.bool rng then (b.entry, 0, b.swap_rank)
    else (b.exit, b.swap_rank + 1, b.len)
  in
  let pair = pick_filler_pair rng (Lazy.force pairs) in
  insert rng b ~lo ~hi (Two { pair; section = 0; special = false })

let one_qubit_names = [| "h"; "x"; "t"; "s" |]

let generate ?(config = default_config) device =
  if config.n_swaps < 1 then invalid_arg "Generator: n_swaps must be >= 1";
  let rng = Rng.create config.seed in
  let n_prog = Device.n_qubits device in
  let initial = Mapping.random rng ~n_program:n_prog ~n_physical:n_prog in
  (* Phase spans only; generation is cold next to routing, but the trace
     shows where a pathological config spends its time. *)
  let traced = Qls_obs.enabled () in
  let phase name =
    (* Deadline/heartbeat checkpoint: one per generator phase. *)
    Qls_cancel.poll ();
    if traced then Qls_obs.start ~site:"gen" name else Qls_obs.none
  in
  (* Build the sections. *)
  let sp = phase "gen.sections" in
  let sections = ref [] in
  let mapping = ref initial in
  let prev_special = ref None in
  for _ = 1 to config.n_swaps do
    (* The count comes from the caller: poll once per section. *)
    Qls_cancel.poll ();
    let s =
      build_section rng device !mapping ~cap:config.saturation_cap
        ~prev_special:!prev_special
    in
    sections := s :: !sections;
    mapping := s.rs_after;
    prev_special := Some s.rs_special
  done;
  if traced then
    Qls_obs.stop sp ~attrs:[ ("n_swaps", Qls_obs.Int config.n_swaps) ];
  let sections = Array.of_list (List.rev !sections) in
  let final_mapping = !mapping in
  let n = config.n_swaps in
  let active_of j =
    (* The qubits a block's section routes around (adjacent sections for
       the filler-only end blocks). *)
    let s = sections.(max 0 (min (n - 1) (j - 1))) in
    let active = Array.make n_prog false in
    active.(s.rs_anchor) <- true;
    active.(s.rs_target) <- true;
    List.iter
      (fun (u, v) ->
        active.(u) <- true;
        active.(v) <- true)
      s.rs_gates;
    active
  in
  (* Blocks 0 .. n+1: block i >= 1 holds section i (gates, SWAP, special);
     blocks 0 and n+1 exist only to host fillers. Filler pairs are built
     on a block's first filler. *)
  let blocks =
    Array.init (n + 2) (fun j ->
        let active = lazy (active_of j) in
        let pairs m =
          lazy (filler_pairs device m ~active:(Lazy.force active))
        in
        if j = 0 || j = n + 1 then
          let only = pairs (if j = 0 then initial else final_mapping) in
          {
            ops = [||];
            order = [||];
            len = 0;
            swap_rank = -1;
            entry = only;
            exit = only;
          }
        else
          let s = sections.(j - 1) in
          let two pair special = Two { pair; section = j; special } in
          let ops =
            Array.of_list
              (List.map (fun pair -> two pair false) s.rs_gates
              @ [ Swap_op s.rs_swap; two s.rs_special true ])
          in
          let len = Array.length ops in
          {
            ops;
            order = Array.init len Fun.id;
            len;
            swap_rank = List.length s.rs_gates;
            entry = pairs s.rs_before;
            exit = pairs s.rs_after;
          })
  in
  let backbone_2q =
    Array.fold_left (fun acc s -> acc + List.length s.rs_gates + 1) 0 sections
  in
  let n_fillers = max 0 (config.gate_budget - backbone_2q) in
  let total_2q = backbone_2q + n_fillers in
  let n_single =
    int_of_float (Float.round (config.single_qubit_ratio *. float_of_int total_2q))
  in
  (* The counts come from the caller: poll once every 1,024 inserted ops
     (fillers, then single-qubit gates). *)
  let checkpoint k = if k land 1023 = 0 then Qls_cancel.poll () in
  let sp = phase "gen.fillers" in
  for k = 1 to n_fillers do
    checkpoint k;
    insert_filler rng blocks.(Rng.int rng (n + 2))
  done;
  (* Single-qubit sprinkles. *)
  for k = 1 to n_single do
    checkpoint (n_fillers + k);
    let b = blocks.(Rng.int rng (n + 2)) in
    let name = Rng.pick_array rng one_qubit_names in
    let q = Rng.int rng n_prog in
    insert rng b ~lo:0 ~hi:b.len (One (Gate.g1 name q))
  done;
  if traced then
    Qls_obs.stop sp
      ~attrs:
        [
          ("fillers", Qls_obs.Int n_fillers);
          ("singles", Qls_obs.Int n_single);
        ];
  (* Materialise: circuit gates, designed transpiled ops, section meta. *)
  let sp = phase "gen.materialise" in
  let gates_rev = ref [] in
  let ops_rev = ref [] in
  let section_indices = Array.make (n + 1) [] in
  let section_special = Array.make (n + 1) (-1) in
  let ci = ref 0 in
  let emit = function
    | Swap_op (p, p') -> ops_rev := Transpiled.Swap (p, p') :: !ops_rev
    | One g ->
        gates_rev := g :: !gates_rev;
        ops_rev := Transpiled.Gate !ci :: !ops_rev;
        incr ci
    | Two { pair = a, b; section; special } ->
        gates_rev := Gate.cx a b :: !gates_rev;
        ops_rev := Transpiled.Gate !ci :: !ops_rev;
        if section > 0 then begin
          section_indices.(section) <- !ci :: section_indices.(section);
          if special then section_special.(section) <- !ci
        end;
        incr ci
  in
  Array.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        emit b.ops.(b.order.(i))
      done)
    blocks;
  let circuit = Circuit.create ~n_qubits:n_prog (List.rev !gates_rev) in
  let designed =
    Transpiled.create ~source:circuit ~device ~initial (List.rev !ops_rev)
  in
  if traced then
    Qls_obs.stop sp
      ~attrs:[ ("gates", Qls_obs.Int (Array.length (Circuit.gates circuit))) ];
  let sp = phase "gen.verify" in
  let report = Verifier.check_exn designed in
  if traced then Qls_obs.stop sp;
  assert (report.Verifier.swap_count = config.n_swaps);
  let meta =
    List.init n (fun i ->
        {
          Benchmark.index = i + 1;
          special_circuit_index = section_special.(i + 1);
          backbone_circuit_indices = List.rev section_indices.(i + 1);
        })
  in
  {
    Benchmark.device;
    circuit;
    optimal_swaps = config.n_swaps;
    initial_mapping = initial;
    designed;
    sections = meta;
    seed = config.seed;
  }

let generate_suite ?(config = default_config) ~count device =
  List.init count (fun i ->
      generate ~config:{ config with seed = config.seed + i } device)
