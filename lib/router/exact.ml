module Graph = Qls_graph.Graph
module Circuit = Qls_circuit.Circuit
module Gate = Qls_circuit.Gate
module Dag = Qls_circuit.Dag
module Device = Qls_arch.Device
module Mapping = Qls_layout.Mapping
module Transpiled = Qls_layout.Transpiled
module Verifier = Qls_layout.Verifier

type verdict = Feasible of Transpiled.t | Infeasible | Unknown

type optimum =
  | Optimal of { swaps : int; witness : Transpiled.t }
  | Unknown_above of { refuted_below : int }

exception Budget_exhausted
exception Found of int array * int array * (int * int) array
(* labels per DAG vertex; placement (program qubit -> physical, -1 if free);
   the SWAP edges actually used *)

let default_budget = 50_000_000

(* Build the transpiled witness from a solution of the transition
   encoding. *)
let build_witness ~device ~circuit ~dag ~k ~swap_edges ~labels ~placement =
  let n_prog = Circuit.n_qubits circuit in
  let n_phys = Device.n_qubits device in
  (* Complete the placement for program qubits with no two-qubit gates. *)
  let placement = Array.copy placement in
  let used = Array.make n_phys false in
  Array.iter (fun p -> if p >= 0 then used.(p) <- true) placement;
  let free = ref [] in
  for p = n_phys - 1 downto 0 do
    if not used.(p) then free := p :: !free
  done;
  Array.iteri
    (fun q p ->
      if p < 0 then
        match !free with
        | f :: rest ->
            placement.(q) <- f;
            free := rest
        | [] -> assert false)
    placement;
  let initial = Mapping.of_array ~n_physical:n_phys placement in
  (* Single-qubit gates are re-attached before the first later two-qubit
     gate on their qubit. *)
  let pending_1q = Array.make (max 1 n_prog) [] in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.G1 { q; _ } -> pending_1q.(q) <- i :: pending_1q.(q)
      | Gate.G2 _ -> ())
    (Circuit.gates circuit);
  Array.iteri (fun q l -> pending_1q.(q) <- List.rev l) pending_1q;
  let ops = ref [] in
  let flush_1q q ~before =
    (* lint: cancel-poll-coverage — one call per single-qubit gate still pending on [q] *)
    let rec go = function
      | i :: rest when i < before ->
          ops := Transpiled.Gate i :: !ops;
          go rest
      | rest -> rest
    in
    pending_1q.(q) <- go pending_1q.(q)
  in
  let n = Dag.n_gates dag in
  for block = 0 to k do
    for v = 0 to n - 1 do
      if labels.(v) = block then begin
        let a, b = Dag.pair dag v in
        let ci = Dag.circuit_index dag v in
        flush_1q a ~before:ci;
        flush_1q b ~before:ci;
        ops := Transpiled.Gate ci :: !ops
      end
    done;
    if block < k then begin
      let p, p' = swap_edges.(block) in
      ops := Transpiled.Swap (p, p') :: !ops
    end
  done;
  Array.iter (List.iter (fun i -> ops := Transpiled.Gate i :: !ops)) pending_1q;
  let t = Transpiled.create ~source:circuit ~device ~initial (List.rev !ops) in
  (* The witness must verify — a failure here is a solver bug. *)
  ignore (Verifier.check_exn t);
  t

(* Unified search for a solution with at most [k] SWAPs.

   Transition view: a transpiled circuit is C0 T0 C1 ... Ts-1 Cs (s <= k).
   The search interleaves three kinds of decisions:

   - {b gate order} — gates are processed in a dynamically chosen
     topological order that prefers gates whose qubits are already placed
     (no branching), then gates with one placed qubit, then fresh ones — a
     fail-first ordering that keeps loosely constrained gates (fillers)
     from exploding the placement branching before a conflict in the
     constrained backbone is reached;
   - {b block labels} — for a fixed placement and SWAP sequence, each gate
     greedily takes the earliest feasible block (a canonical form:
     re-labelling any solution this way keeps it a solution, so only
     greedy labellings need exploring);
   - {b SWAP edges} — chosen lazily: the coupler for transition [T_s] is
     branched over only when some gate first fails to fit in blocks
     [0..s]. All work done before that point is shared across the coupler
     choices, which is what makes refutation (full exhaustion) tractable.

   [sigma.(l)] maps an initial physical position to its position after the
   first [l] SWAPs; a gate on initial positions (u, v) fits block [l] iff
   [sigma.(l)] sends them to coupled positions. *)
let search ~budget ~nodes ~dag ~k ~n_phys ~coupled ~couplers =
  let n = Dag.n_gates dag in
  let labels = Array.make n (-1) in
  let processed = Array.make n false in
  let pending = Array.init n (fun v -> List.length (Dag.predecessors dag v)) in
  let place = Array.make n_phys (-1) in
  (* physical -> program *)
  let placed = Hashtbl.create 32 in
  (* program -> physical *)
  let sigma = Array.init (k + 1) (fun _ -> Array.init n_phys Fun.id) in
  let chosen_swaps = Array.make (max 1 k) (0, 0) in
  let n_chosen = ref 0 in
  let allowed l u v = coupled sigma.(l).(u) sigma.(l).(v) in
  let pick_next () =
    let best = ref None in
    for v = n - 1 downto 0 do
      if (not processed.(v)) && pending.(v) = 0 then begin
        let a, b = Dag.pair dag v in
        let rank =
          match (Hashtbl.mem placed a, Hashtbl.mem placed b) with
          | true, true -> 0
          | true, false | false, true -> 1
          | false, false -> 2
        in
        match !best with
        | Some (brank, _) when brank < rank -> ()
        | Some _ | None -> best := Some (rank, v)
      end
    done;
    !best
  in
  let maxpred v =
    List.fold_left (fun acc p -> max acc labels.(p)) 0 (Dag.predecessors dag v)
  in
  (* No loop drives the recursion below: poll on node 1, 4097, ... *)
  let bump () =
    incr nodes;
    if !nodes land 4095 = 1 then Qls_cancel.poll ();
    if !nodes > budget then raise Budget_exhausted
  in
  let rec assign count =
    bump ();
    if count = n then begin
      (* lint: nondet-source — max over keys is order-insensitive *)
      let max_q = Hashtbl.fold (fun q _ acc -> max acc q) placed (-1) in
      let placement = Array.make (max_q + 1) (-1) in
      (* lint: nondet-source — each key writes its own slot exactly once *)
      Hashtbl.iter (fun q p -> placement.(q) <- p) placed;
      raise
        (Found
           ( Array.copy labels,
             placement,
             Array.sub chosen_swaps 0 !n_chosen ))
    end;
    match pick_next () with
    | None -> ()
    | Some (_, v) ->
        processed.(v) <- true;
        List.iter (fun w -> pending.(w) <- pending.(w) - 1) (Dag.successors dag v);
        let a, b = Dag.pair dag v in
        let from = maxpred v in
        (match (Hashtbl.find_opt placed a, Hashtbl.find_opt placed b) with
        | Some u, Some vpos -> label_gate v count ~from u vpos
        | Some u, None ->
            for vpos = 0 to n_phys - 1 do
              if place.(vpos) < 0 then begin
                place.(vpos) <- b;
                Hashtbl.add placed b vpos;
                label_gate v count ~from u vpos;
                Hashtbl.remove placed b;
                place.(vpos) <- -1
              end
            done
        | None, Some vpos ->
            for u = 0 to n_phys - 1 do
              if place.(u) < 0 then begin
                place.(u) <- a;
                Hashtbl.add placed a u;
                label_gate v count ~from u vpos;
                Hashtbl.remove placed a;
                place.(u) <- -1
              end
            done
        | None, None ->
            for u = 0 to n_phys - 1 do
              if place.(u) < 0 then begin
                place.(u) <- a;
                Hashtbl.add placed a u;
                for vpos = 0 to n_phys - 1 do
                  if place.(vpos) < 0 then begin
                    place.(vpos) <- b;
                    Hashtbl.add placed b vpos;
                    label_gate v count ~from u vpos;
                    Hashtbl.remove placed b;
                    place.(vpos) <- -1
                  end
                done;
                Hashtbl.remove placed a;
                place.(u) <- -1
              end
            done);
        List.iter (fun w -> pending.(w) <- pending.(w) + 1) (Dag.successors dag v);
        processed.(v) <- false
  (* Give gate [v] (on initial positions [u], [vpos]) its earliest feasible
     block >= [from], extending the SWAP sequence on demand. *)
  and label_gate v count ~from u vpos =
    let rec attempt l =
      bump ();
      if l > k then () (* no block fits within the SWAP budget *)
      else if l <= !n_chosen then begin
        if allowed l u vpos then begin
          labels.(v) <- l;
          assign (count + 1);
          labels.(v) <- -1
        end
        else attempt (l + 1)
      end
      else begin
        (* l = n_chosen + 1: branch the coupler for transition T_{l-1}. *)
        let prev = sigma.(l - 1) in
        let next = sigma.(l) in
        Array.iter
          (fun (p, p') ->
            chosen_swaps.(l - 1) <- (p, p');
            incr n_chosen;
            Array.blit prev 0 next 0 n_phys;
            for i = 0 to n_phys - 1 do
              if next.(i) = p then next.(i) <- p'
              else if next.(i) = p' then next.(i) <- p
            done;
            if allowed l u vpos then begin
              labels.(v) <- l;
              assign (count + 1);
              labels.(v) <- -1
            end
            else attempt (l + 1);
            decr n_chosen)
          couplers
      end
    in
    attempt from
  in
  assign 0

let check ?(node_budget = default_budget) ~swaps device circuit =
  if swaps < 0 then invalid_arg "Exact.check: negative swap count";
  if Circuit.n_qubits circuit > Device.n_qubits device then
    invalid_arg "Exact.check: circuit larger than device";
  let k = swaps in
  let dag = Dag.of_circuit circuit in
  let n = Dag.n_gates dag in
  let n_phys = Device.n_qubits device in
  let couplers = Array.of_list (Device.edges device) in
  let coupling = Device.graph device in
  let nodes = ref 0 in
  if n = 0 then begin
    (* No two-qubit gates: zero swaps suffice. Emit the 1q gates in program
       order under the identity mapping — the same witness semantics as
       [Olsq.check]'s gate-free branch, so both checkers pin the same
       initial mapping for 1q-only circuits. *)
    let initial =
      Mapping.identity ~n_program:(Circuit.n_qubits circuit) ~n_physical:n_phys
    in
    let ops =
      List.init (Circuit.length circuit) (fun i -> Transpiled.Gate i)
    in
    let witness = Transpiled.create ~source:circuit ~device ~initial ops in
    ignore (Verifier.check_exn witness);
    Feasible witness
  end
  else begin
    let result = ref Infeasible in
    (try
       search ~budget:node_budget ~nodes ~dag ~k ~n_phys
         ~coupled:(fun u v -> Graph.mem_edge coupling u v)
         ~couplers
     with
    | Budget_exhausted -> result := Unknown
    | Found (labels, placement, swap_edges) ->
        let n_prog = Circuit.n_qubits circuit in
        let full = Array.make n_prog (-1) in
        Array.iteri (fun q p -> if q < n_prog then full.(q) <- p) placement;
        let witness =
          build_witness ~device ~circuit ~dag ~k:(Array.length swap_edges)
            ~swap_edges ~labels ~placement:full
        in
        result := Feasible witness);
    !result
  end

let minimum_swaps ?(max_swaps = 8) ?(node_budget = default_budget) device circuit =
  let rec go k =
    if k > max_swaps then Unknown_above { refuted_below = k }
    else
      match check ~node_budget ~swaps:k device circuit with
      | Feasible witness ->
          (* Every count below [k] was refuted, so the witness uses exactly
             [k] SWAPs; read it off the witness for good measure. *)
          Optimal { swaps = Transpiled.swap_count witness; witness }
      | Infeasible -> go (k + 1)
      | Unknown -> Unknown_above { refuted_below = k }
  in
  go 0

let router ?max_swaps ?node_budget () =
  {
    Router.name = "exact";
    route =
      (fun ?initial device circuit ->
        ignore initial;
        match minimum_swaps ?max_swaps ?node_budget device circuit with
        | Optimal { witness; _ } -> witness
        | Unknown_above { refuted_below } ->
            failwith
              (Printf.sprintf
                 "Exact.router: budget exhausted (only refuted < %d swaps)"
                 refuted_below));
  }
