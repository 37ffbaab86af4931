(* Frozen reference copy of the list-splicing generator that per-block
   index arrays replaced. Test-only: the property in test_qubikos.ml
   checks that [Generator.generate] serialises byte for byte as this
   does, over devices, budgets, SWAP counts, single-qubit ratios,
   saturation caps and seeds. Its phase spans and deadline polls are
   left out: they draw nothing. Do not edit it to match a change in
   [Generator]; a difference is what the property exists to find. *)

module Benchmark = Qubikos.Benchmark
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
  let n = Device.n_qubits device in
  let count_above d =
    let c = ref 0 in
    for x = 0 to n - 1 do
      if Device.degree device x > d then incr c
    done;
    !c
  in
  let feasible (p, p') =
    let nbrs_p = Device.neighbors device p in
    let t_candidates =
      List.filter
        (fun x -> x <> p && not (List.mem x nbrs_p))
        (Device.neighbors device p')
    in
    match t_candidates with
    | [] -> None
    | cs -> Some (p, p', Rng.pick rng cs, count_above (Device.degree device p))
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

(* All program pairs executable under [mapping]: exactly the couplers,
   read through the mapping. *)
let coupler_pairs device mapping =
  List.map
    (fun (x, y) -> (prog mapping x, prog mapping y))
    (Device.edges device)

let insert_between rng block ~lo ~hi op =
  (* Insert [op] at a uniform position within [lo, hi] (list indices). *)
  let pos = lo + Rng.int rng (hi - lo + 1) in
  let rec splice i rest =
    if i = pos then op :: rest
    else
      match rest with
      | [] -> [ op ]
      | x :: tl -> x :: splice (i + 1) tl
  in
  splice 0 block

let swap_position block =
  let rec go i = function
    | [] -> None
    | Swap_op _ :: _ -> Some i
    | (Two _ | One _) :: rest -> go (i + 1) rest
  in
  go 0 block

(* Pick a filler pair executable under [mapping], biased (3:1) towards
   pairs touching the section's [active] qubits so fillers cluster around
   the routing action — the paper's Fig. 5 instance shows the same
   distractor pair recurring throughout the extended set, which is what
   makes equal-weight lookahead misfire (§IV-C). *)
let pick_filler_pair rng device mapping ~active =
  let candidates = coupler_pairs device mapping in
  let preferred =
    List.filter (fun (u, v) -> List.mem u active || List.mem v active) candidates
  in
  match preferred with
  | [] -> Rng.pick rng candidates
  | _ -> if Rng.int rng 4 < 3 then Rng.pick rng preferred else Rng.pick rng candidates

(* Insert one filler gate into block [j]. A filler placed before the
   section's SWAP must be executable under the section's entry mapping,
   one placed after it under the exit mapping (paper §III-B: "(q2, q7)
   can only be inserted before g4"). *)
let insert_filler rng device ~m_before ~m_after ~active block =
  let len = List.length block in
  match swap_position block with
  | None ->
      (* Filler-only block: a single mapping governs the whole span. *)
      let pair = pick_filler_pair rng device m_before ~active in
      insert_between rng block ~lo:0 ~hi:len
        (Two { pair; section = 0; special = false })
  | Some sp ->
      if Rng.bool rng then begin
        let pair = pick_filler_pair rng device m_before ~active in
        insert_between rng block ~lo:0 ~hi:sp
          (Two { pair; section = 0; special = false })
      end
      else begin
        let pair = pick_filler_pair rng device m_after ~active in
        insert_between rng block ~lo:(sp + 1) ~hi:len
          (Two { pair; section = 0; special = false })
      end

let insert_at rng block op =
  insert_between rng block ~lo:0 ~hi:(List.length block) op

let one_qubit_names = [| "h"; "x"; "t"; "s" |]

let generate ?(config = default_config) device =
  if config.n_swaps < 1 then invalid_arg "Generator: n_swaps must be >= 1";
  let rng = Rng.create config.seed in
  let n_prog = Device.n_qubits device in
  let initial = Mapping.random rng ~n_program:n_prog ~n_physical:n_prog in
  (* Build the sections. *)
  let sections = ref [] in
  let mapping = ref initial in
  let prev_special = ref None in
  for _ = 1 to config.n_swaps do
    let s =
      build_section rng device !mapping ~cap:config.saturation_cap
        ~prev_special:!prev_special
    in
    sections := s :: !sections;
    mapping := s.rs_after;
    prev_special := Some s.rs_special
  done;
  let sections = List.rev !sections in
  let final_mapping = !mapping in
  (* Blocks 0 .. n+1: block i >= 1 holds section i (gates, SWAP, special);
     blocks 0 and n+1 exist only to host fillers. *)
  let n = config.n_swaps in
  let blocks = Array.make (n + 2) [] in
  List.iteri
    (fun i s ->
      let sec = i + 1 in
      blocks.(sec) <-
        List.map (fun pair -> Two { pair; section = sec; special = false }) s.rs_gates
        @ [
            Swap_op s.rs_swap;
            Two { pair = s.rs_special; section = sec; special = true };
          ])
    sections;
  (* Fillers. *)
  let backbone_2q =
    List.fold_left (fun acc s -> acc + List.length s.rs_gates + 1) 0 sections
  in
  let sections_arr = Array.of_list sections in
  let block_mappings j =
    if j = 0 then (initial, initial)
    else if j <= n then
      (sections_arr.(j - 1).rs_before, sections_arr.(j - 1).rs_after)
    else (final_mapping, final_mapping)
  in
  let n_fillers = max 0 (config.gate_budget - backbone_2q) in
  let active_of j =
    (* The qubits a block's section routes around (adjacent sections for
       the filler-only end blocks). *)
    let s = sections_arr.(max 0 (min (n - 1) (j - 1))) in
    s.rs_anchor :: s.rs_target
    :: List.concat_map (fun (u, v) -> [ u; v ]) s.rs_gates
    |> List.sort_uniq Int.compare
  in
  for _ = 1 to n_fillers do
    let j = Rng.int rng (n + 2) in
    let m_before, m_after = block_mappings j in
    blocks.(j) <-
      insert_filler rng device ~m_before ~m_after ~active:(active_of j) blocks.(j)
  done;
  (* Single-qubit sprinkles. *)
  let total_2q = backbone_2q + n_fillers in
  let n_single =
    int_of_float (Float.round (config.single_qubit_ratio *. float_of_int total_2q))
  in
  for _ = 1 to n_single do
    let j = Rng.int rng (n + 2) in
    let name = Rng.pick_array rng one_qubit_names in
    let q = Rng.int rng n_prog in
    blocks.(j) <- insert_at rng blocks.(j) (One (Gate.g1 name q))
  done;
  (* Materialise: circuit gates, designed transpiled ops, section meta. *)
  let flat = List.concat (Array.to_list blocks) in
  let gates_rev = ref [] in
  let ops_rev = ref [] in
  let section_indices = Array.make (n + 1) [] in
  let section_special = Array.make (n + 1) (-1) in
  let ci = ref 0 in
  List.iter
    (fun op ->
      match op with
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
          incr ci)
    flat;
  let circuit = Circuit.create ~n_qubits:n_prog (List.rev !gates_rev) in
  let designed =
    Transpiled.create ~source:circuit ~device ~initial (List.rev !ops_rev)
  in
  let report = Verifier.check_exn designed in
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
