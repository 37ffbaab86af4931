module Solver = Qls_sat.Solver
module Graph = Qls_graph.Graph
module Circuit = Qls_circuit.Circuit
module Dag = Qls_circuit.Dag
module Device = Qls_arch.Device
module Mapping = Qls_layout.Mapping
module Transpiled = Qls_layout.Transpiled
module Verifier = Qls_layout.Verifier

type verdict = Feasible of Transpiled.t | Infeasible | Unknown

type optimum =
  | Optimal of { swaps : int; witness : Transpiled.t }
  | Unknown_above of { refuted_below : int }

(* Variable numbering for one bound [k]. *)
type vars = {
  n_prog : int;
  n_phys : int;
  n_gates : int;
  n_edges : int;
  k : int;
}

let x vars q p t =
  1 + (((t * vars.n_prog) + q) * vars.n_phys) + p

let n_x vars = vars.n_prog * vars.n_phys * (vars.k + 1)

let b vars g t = 1 + n_x vars + (g * (vars.k + 1)) + t
let n_b vars = vars.n_gates * (vars.k + 1)

(* Transition choice: edge index e in [0, n_edges), or n_edges = none. *)
let s vars e t = 1 + n_x vars + n_b vars + (t * (vars.n_edges + 1)) + e
let n_s vars = max 0 (vars.k * (vars.n_edges + 1))
let total_vars vars = n_x vars + n_b vars + n_s vars

let encode ~vars ~device ~dag solver =
  let { n_prog; n_phys; n_gates; n_edges; k } = vars in
  let add = Solver.add_clause solver in
  (* 1. each program qubit occupies exactly one position per block *)
  for t = 0 to k do
    for q = 0 to n_prog - 1 do
      add (List.init n_phys (fun p -> x vars q p t));
      for p = 0 to n_phys - 1 do
        for p' = p + 1 to n_phys - 1 do
          add [ -x vars q p t; -x vars q p' t ]
        done
      done
    done;
    (* 2. injectivity: a position holds at most one program qubit *)
    for p = 0 to n_phys - 1 do
      for q = 0 to n_prog - 1 do
        for q' = q + 1 to n_prog - 1 do
          add [ -x vars q p t; -x vars q' p t ]
        done
      done
    done
  done;
  (* 3. each gate executes in exactly one block *)
  for g = 0 to n_gates - 1 do
    add (List.init (k + 1) (fun t -> b vars g t));
    for t = 0 to k do
      for t' = t + 1 to k do
        add [ -b vars g t; -b vars g t' ]
      done
    done;
    (* dependencies: predecessors in an earlier-or-equal block *)
    List.iter
      (fun g' ->
        for t = 0 to k do
          add (-b vars g t :: List.init (t + 1) (fun t' -> b vars g' t'))
        done)
      (Dag.predecessors dag g)
  done;
  (* 4. adjacency: a gate's qubits are coupled during its block *)
  for g = 0 to n_gates - 1 do
    let a, bq = Dag.pair dag g in
    for t = 0 to k do
      for p = 0 to n_phys - 1 do
        add
          (-b vars g t :: -x vars a p t
          :: List.map (fun p' -> x vars bq p' t) (Device.neighbors device p))
      done
    done
  done;
  (* 5. transitions *)
  let edges = Array.of_list (Device.edges device) in
  for t = 0 to k - 1 do
    (* exactly one choice (an edge, or none = index n_edges) *)
    add (List.init (n_edges + 1) (fun e -> s vars e t));
    for e = 0 to n_edges do
      for e' = e + 1 to n_edges do
        add [ -s vars e t; -s vars e' t ]
      done
    done;
    for e = 0 to n_edges - 1 do
      let u, v = edges.(e) in
      for q = 0 to n_prog - 1 do
        for p = 0 to n_phys - 1 do
          let dest = if p = u then v else if p = v then u else p in
          add [ -s vars e t; -x vars q p t; x vars q dest (t + 1) ]
        done
      done
    done;
    (* none: frame axioms *)
    for q = 0 to n_prog - 1 do
      for p = 0 to n_phys - 1 do
        add [ -s vars n_edges t; -x vars q p t; x vars q p (t + 1) ]
      done
    done
  done

let decode ~vars ~device ~dag ~circuit solver =
  let { n_prog; n_phys; n_gates; n_edges; k } = vars in
  let edges = Array.of_list (Device.edges device) in
  (* initial mapping from block 0 *)
  let placement = Array.make n_prog (-1) in
  for q = 0 to n_prog - 1 do
    for p = 0 to n_phys - 1 do
      if Solver.value solver (x vars q p 0) then placement.(q) <- p
    done
  done;
  let initial = Mapping.of_array ~n_physical:n_phys placement in
  (* gate blocks *)
  let block_of = Array.make n_gates 0 in
  for g = 0 to n_gates - 1 do
    for t = 0 to k do
      if Solver.value solver (b vars g t) then block_of.(g) <- t
    done
  done;
  (* single-qubit gate re-attachment, as in Route_state *)
  let pending_1q = Array.make (max 1 n_prog) [] in
  Array.iteri
    (fun i g ->
      match g with
      | Qls_circuit.Gate.G1 { q; _ } -> pending_1q.(q) <- i :: pending_1q.(q)
      | Qls_circuit.Gate.G2 _ -> ())
    (Circuit.gates circuit);
  Array.iteri (fun q l -> pending_1q.(q) <- List.rev l) pending_1q;
  let ops = ref [] in
  let flush_1q q ~before =
    let rec go = function
      | i :: rest when i < before ->
          ops := Transpiled.Gate i :: !ops;
          go rest
      | rest -> rest
    in
    pending_1q.(q) <- go pending_1q.(q)
  in
  for t = 0 to k do
    for g = 0 to n_gates - 1 do
      if block_of.(g) = t then begin
        let a, bq = Dag.pair dag g in
        let ci = Dag.circuit_index dag g in
        flush_1q a ~before:ci;
        flush_1q bq ~before:ci;
        ops := Transpiled.Gate ci :: !ops
      end
    done;
    if t < k then
      for e = 0 to n_edges - 1 do
        if Solver.value solver (s vars e t) then begin
          let u, v = edges.(e) in
          ops := Transpiled.Swap (u, v) :: !ops
        end
      done
  done;
  Array.iter (List.iter (fun i -> ops := Transpiled.Gate i :: !ops)) pending_1q;
  let witness =
    Transpiled.create ~source:circuit ~device ~initial (List.rev !ops)
  in
  ignore (Verifier.check_exn witness);
  witness

(* Canonicity (symmetry breaking), used on the incremental path only: if
   transition [t] is "none" the mappings at blocks [t] and [t+1] coincide,
   so a gate sitting in block [t+1] could equally run in block [t] — unless
   a predecessor occupies block [t+1]. Forbidding the non-canonical
   placements keeps exactly the greedy-earliest representative of every
   solution class, which preserves satisfiability at every bound while
   pruning the permutation symmetry the k-walk would otherwise re-refute at
   each bound. *)
let encode_earliest_block ~vars ~dag solver =
  let { n_gates; n_edges; k; _ } = vars in
  let add = Solver.add_clause solver in
  for g = 0 to n_gates - 1 do
    let preds = Dag.predecessors dag g in
    for t = 0 to k - 1 do
      add
        (-b vars g (t + 1) :: -s vars n_edges t
        :: List.map (fun g' -> b vars g' (t + 1)) preds)
    done
  done

let make_vars device circuit dag ~k =
  {
    n_prog = Circuit.n_qubits circuit;
    n_phys = Device.n_qubits device;
    n_gates = Dag.n_gates dag;
    n_edges = Device.n_edges device;
    k;
  }

(* No two-qubit gates: emit all 1q gates under the identity mapping. Shared
   by the fresh and incremental paths (and mirrored by [Exact.check]) so
   every checker pins the same witness semantics for 1q-only circuits. *)
let gate_free_witness ~vars ~device circuit =
  let initial =
    Mapping.identity ~n_program:vars.n_prog ~n_physical:vars.n_phys
  in
  let ops = List.init (Circuit.length circuit) (fun i -> Transpiled.Gate i) in
  Transpiled.create ~source:circuit ~device ~initial ops

(* One encoding pass inside an [olsq.encode] span, which sits next to
   the solver's [sat.solve] so a trace splits encode from solve. The
   attributes are a thunk: with tracing off nothing is built. *)
let encode_span ~vars f =
  Qls_obs.with_span ~site:"sat" "olsq.encode"
    ~attrs:(fun () ->
      [ ("vars", Qls_obs.Int (total_vars vars)); ("k", Qls_obs.Int vars.k) ])
    f

let validate_instance ~fn ~swaps device circuit =
  if swaps < 0 then invalid_arg (fn ^ ": negative swap count");
  if Circuit.n_qubits circuit > Device.n_qubits device then
    invalid_arg (fn ^ ": circuit larger than device")

let check ?(conflict_budget = 2_000_000) ~swaps device circuit =
  validate_instance ~fn:"Olsq.check" ~swaps device circuit;
  let dag = Dag.of_circuit circuit in
  let vars = make_vars device circuit dag ~k:swaps in
  if vars.n_gates = 0 then Feasible (gate_free_witness ~vars ~device circuit)
  else if vars.n_prog = 0 then Infeasible
  else begin
    let solver = Solver.create (total_vars vars) in
    encode_span ~vars (fun () -> encode ~vars ~device ~dag solver);
    match Solver.solve ~conflict_budget solver with
    | Solver.Sat -> Feasible (decode ~vars ~device ~dag ~circuit solver)
    | Solver.Unsat -> Infeasible
    | Solver.Unknown -> Unknown
  end

(* Incremental sessions: encode once at [k_max], then decide each bound
   [k <= k_max] under assumptions instead of re-encoding. Bound [k] is
   exactly "transitions k .. k_max-1 all take the none option": a solution
   with at most [k] swaps always extends with trailing identity transitions,
   and conversely a model under those assumptions uses at most [k] swaps.
   Refuting bound [k] therefore shares every learned clause, activity and
   saved phase with the attempt at [k+1]. *)
module Incremental = struct
  type session = {
    device : Device.t;
    circuit : Circuit.t;
    dag : Dag.t;
    vars : vars;
    solver : Solver.t option;  (* None: trivial instance, no SAT needed *)
  }

  let create ?(max_swaps = 8) device circuit =
    validate_instance ~fn:"Olsq.Incremental.create" ~swaps:max_swaps device
      circuit;
    let dag = Dag.of_circuit circuit in
    let vars = make_vars device circuit dag ~k:max_swaps in
    let solver =
      if vars.n_gates = 0 || vars.n_prog = 0 then None
      else begin
        let solver = Solver.create (total_vars vars) in
        encode_span ~vars (fun () ->
            encode ~vars ~device ~dag solver;
            encode_earliest_block ~vars ~dag solver);
        Some solver
      end
    in
    { device; circuit; dag; vars; solver }

  let max_swaps sess = sess.vars.k

  (* Assume "no swap" for every transition from [swaps] up to the session
     bound: these are exactly the selector literals that specialise the
     k_max encoding to bound [swaps]. *)
  let bound_assumptions sess ~swaps =
    List.init (sess.vars.k - swaps) (fun i ->
        s sess.vars sess.vars.n_edges (swaps + i))

  let check ?(conflict_budget = 2_000_000) sess ~swaps =
    if swaps < 0 then
      invalid_arg "Olsq.Incremental.check: negative swap count";
    if swaps > sess.vars.k then
      invalid_arg
        (Printf.sprintf
           "Olsq.Incremental.check: bound %d exceeds session max_swaps %d"
           swaps sess.vars.k);
    match sess.solver with
    | None ->
        if sess.vars.n_gates = 0 then
          Feasible
            (gate_free_witness ~vars:sess.vars ~device:sess.device
               sess.circuit)
        else Infeasible
    | Some solver -> (
        let assumptions = bound_assumptions sess ~swaps in
        match Solver.solve ~conflict_budget ~assumptions solver with
        | Solver.Sat ->
            Feasible
              (decode ~vars:sess.vars ~device:sess.device ~dag:sess.dag
                 ~circuit:sess.circuit solver)
        | Solver.Unsat -> Infeasible
        | Solver.Unknown -> Unknown)

  let solves sess =
    match sess.solver with None -> 0 | Some solver -> Solver.solves solver
end

let minimum_swaps ?(max_swaps = 8) ?conflict_budget device circuit =
  let session = Incremental.create ~max_swaps device circuit in
  let rec walk k =
    if k > max_swaps then Unknown_above { refuted_below = k }
    else
      match Incremental.check ?conflict_budget session ~swaps:k with
      | Feasible witness ->
          Optimal { swaps = Transpiled.swap_count witness; witness }
      | Infeasible -> walk (k + 1)
      | Unknown -> Unknown_above { refuted_below = k }
  in
  walk 0
