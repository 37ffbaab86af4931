module Rng = Qls_graph.Rng
module Circuit = Qls_circuit.Circuit
module Device = Qls_arch.Device
module Mapping = Qls_layout.Mapping

type options = { seed : int }

let default_options = { seed = 0 }

(* Coarsening stops at this many clusters; each level gets this many
   local-search sweeps. *)
let coarsen_to = 8
let refine_sweeps = 4

(* Weighted interaction graphs as hash tables keyed by canonical pairs. *)
module Wgraph = struct
  type t = {
    n : int;
    weights : (int * int, int) Hashtbl.t;
    adj : (int, (int * int) list) Hashtbl.t; (* vertex -> (nbr, weight) *)
  }

  let canon u v = if u < v then (u, v) else (v, u)

  (* Weight entries in ascending canonical-pair order: hash order must
     never leak into placement decisions. *)
  let sorted_entries weights =
    Hashtbl.fold (fun k w acc -> (k, w) :: acc) weights []
    |> List.sort (fun ((a, b), _) ((c, d), _) ->
           match Int.compare a c with 0 -> Int.compare b d | n -> n)

  let of_pairs n pairs =
    let weights = Hashtbl.create 64 in
    List.iter
      (fun (a, b) ->
        let key = canon a b in
        Hashtbl.replace weights key
          (1 + Option.value ~default:0 (Hashtbl.find_opt weights key)))
      pairs;
    let adj = Hashtbl.create 64 in
    let add v nbr w =
      Hashtbl.replace adj v ((nbr, w) :: Option.value ~default:[] (Hashtbl.find_opt adj v))
    in
    List.iter
      (fun ((u, v), w) ->
        add u v w;
        add v u w)
      (sorted_entries weights);
    { n; weights; adj }

  let neighbors g v = Option.value ~default:[] (Hashtbl.find_opt g.adj v)

  let weighted_degree g v =
    List.fold_left (fun acc (_, w) -> acc + w) 0 (neighbors g v)
end

(* One coarsening level: a heavy-edge matching. [parent.(v)] is the coarse
   vertex id of fine vertex [v]; [children.(c)] lists the fine vertices of
   coarse vertex [c] (one or two). *)
type level = { parent : int array; children : int list array }

let coarsen_once rng (g : Wgraph.t) =
  let n = g.Wgraph.n in
  let matched = Array.make n false in
  let parent = Array.make n (-1) in
  let pairs = ref [] in
  let order = Rng.permutation rng n in
  Array.iter
    (fun v ->
      if not matched.(v) then begin
        (* Heaviest unmatched neighbour. *)
        let best =
          List.fold_left
            (fun best (u, w) ->
              if matched.(u) then best
              else
                match best with
                | Some (_, bw) when bw >= w -> best
                | Some _ | None -> Some (u, w))
            None (Wgraph.neighbors g v)
        in
        match best with
        | Some (u, _) ->
            matched.(v) <- true;
            matched.(u) <- true;
            pairs := (v, u) :: !pairs
        | None -> ()
      end)
    order;
  let next_id = ref 0 in
  let fresh () =
    let i = !next_id in
    incr next_id;
    i
  in
  let children_tbl = Hashtbl.create 64 in
  List.iter
    (fun (v, u) ->
      let c = fresh () in
      parent.(v) <- c;
      parent.(u) <- c;
      Hashtbl.add children_tbl c [ v; u ])
    !pairs;
  for v = 0 to n - 1 do
    if parent.(v) < 0 then begin
      let c = fresh () in
      parent.(v) <- c;
      Hashtbl.add children_tbl c [ v ]
    end
  done;
  let n_coarse = !next_id in
  let children = Array.make n_coarse [] in
  (* lint: nondet-source — each coarse id writes its own slot exactly once *)
  Hashtbl.iter (fun c vs -> children.(c) <- vs) children_tbl;
  (* Project the weighted edges. *)
  let coarse_pairs = ref [] in
  List.iter
    (fun ((u, v), w) ->
      let cu = parent.(u) and cv = parent.(v) in
      if cu <> cv then
        for _ = 1 to w do
          coarse_pairs := (cu, cv) :: !coarse_pairs
        done)
    (Wgraph.sorted_entries g.Wgraph.weights);
  (Wgraph.of_pairs n_coarse !coarse_pairs, { parent; children })

let weighted_cost device circuit mapping =
  let g =
    Wgraph.of_pairs (Circuit.n_qubits circuit) (Circuit.two_qubit_pairs circuit)
  in
  (* lint: nondet-source — integer sum; commutative, order-insensitive *)
  Hashtbl.fold
    (fun (u, v) w acc ->
      acc
      + (w * (Device.distance_row device (Mapping.phys mapping u)).(Mapping.phys mapping v)))
    g.Wgraph.weights 0

(* Greedy weighted placement of a (coarse) graph onto the device. *)
let greedy_place rng device (g : Wgraph.t) =
  let n = g.Wgraph.n in
  let n_phys = Device.n_qubits device in
  let anchor = Array.make n (-1) in
  let taken = Array.make n_phys false in
  let order =
    List.sort
      (fun a b -> Int.compare (Wgraph.weighted_degree g b) (Wgraph.weighted_degree g a))
      (List.init n Fun.id)
  in
  List.iter
    (fun v ->
      let placed = List.filter (fun (u, _) -> anchor.(u) >= 0) (Wgraph.neighbors g v) in
      let best = ref None in
      for p = 0 to n_phys - 1 do
        if not taken.(p) then begin
          let row = Device.distance_row device p in
          let cost =
            List.fold_left
              (fun acc (u, w) -> acc + (w * row.(anchor.(u))))
              0 placed
          in
          let key = (cost, -Device.degree device p, Rng.int rng 1_000_000) in
          match !best with
          | Some (_, bkey) when bkey <= key -> ()
          | Some _ | None -> best := Some (p, key)
        end
      done;
      match !best with
      | Some (p, _) ->
          anchor.(v) <- p;
          taken.(p) <- true
      | None -> invalid_arg "Mlqls: device smaller than cluster count")
    order;
  (anchor, taken)

(* Pairwise-exchange refinement on anchors (occupied<->occupied and
   occupied<->free), first-improvement sweeps. *)
let refine device (g : Wgraph.t) anchor taken =
  let n_phys = Device.n_qubits device in
  let holder = Array.make n_phys (-1) in
  Array.iteri (fun v p -> holder.(p) <- v) anchor;
  let delta_for v new_p =
    (* Cost change of moving vertex v to physical new_p (assumed free or
       holding a vertex that simultaneously moves to v's spot). *)
    let row_new = Device.distance_row device new_p in
    let row_old = Device.distance_row device anchor.(v) in
    List.fold_left
      (fun acc (u, w) ->
        if u = v then acc
        else acc + (w * (row_new.(anchor.(u)) - row_old.(anchor.(u)))))
      0 (Wgraph.neighbors g v)
  in
  for _ = 1 to refine_sweeps do
    for p = 0 to n_phys - 1 do
      let v = holder.(p) in
      if v >= 0 then
        (* Try exchanging with every other physical qubit. *)
        for p' = 0 to n_phys - 1 do
          if p' <> anchor.(v) then begin
            let u = holder.(p') in
            let gain =
              if u < 0 then delta_for v p'
              else begin
                (* Swap v and u; account for their mutual edge exactly by
                   evaluating the cost difference directly. *)
                let pair_cost () =
                  let row_v = Device.distance_row device anchor.(v) in
                  let row_u = Device.distance_row device anchor.(u) in
                  List.fold_left
                    (fun acc (x, w) -> acc + (w * row_v.(anchor.(x))))
                    0 (Wgraph.neighbors g v)
                  + List.fold_left
                      (fun acc (x, w) -> acc + (w * row_u.(anchor.(x))))
                      0 (Wgraph.neighbors g u)
                in
                let before = pair_cost () in
                let av = anchor.(v) and au = anchor.(u) in
                anchor.(v) <- au;
                anchor.(u) <- av;
                let after = pair_cost () in
                anchor.(v) <- av;
                anchor.(u) <- au;
                after - before
              end
            in
            if gain < 0 then begin
              let old_p = anchor.(v) in
              if u < 0 then begin
                anchor.(v) <- p';
                holder.(p') <- v;
                holder.(old_p) <- -1;
                taken.(p') <- true;
                taken.(old_p) <- false
              end
              else begin
                anchor.(v) <- p';
                anchor.(u) <- old_p;
                holder.(p') <- v;
                holder.(old_p) <- u
              end
            end
          end
        done
    done
  done

let place ?(options = default_options) device circuit =
  let opts = options in
  let rng = Rng.create opts.seed in
  let n_prog = Circuit.n_qubits circuit in
  let finest = Wgraph.of_pairs n_prog (Circuit.two_qubit_pairs circuit) in
  (* Coarsen. *)
  (* lint: cancel-poll-coverage — each level has fewer vertices than the last: at most n_prog levels *)
  let rec build g levels =
    if g.Wgraph.n <= coarsen_to then (g, levels)
    else begin
      let coarse, level = coarsen_once rng g in
      if coarse.Wgraph.n = g.Wgraph.n then (g, levels)
      else build coarse ((g, level) :: levels)
    end
  in
  let coarsest, levels = build finest [] in
  (* Place coarsest, then uncoarsen with refinement. *)
  let anchor, taken = greedy_place rng device coarsest in
  refine device coarsest anchor taken;
  let current_anchor = ref anchor in
  let current_taken = ref taken in
  List.iter
    (fun (fine_graph, level) ->
      let n_fine = fine_graph.Wgraph.n in
      let fine_anchor = Array.make n_fine (-1) in
      let n_phys = Device.n_qubits device in
      let taken' = Array.make n_phys false in
      (* First children inherit the coarse anchor. *)
      Array.iteri
        (fun c vs ->
          match vs with
          | [] -> ()
          | v :: _ ->
              fine_anchor.(v) <- !current_anchor.(c);
              taken'.(!current_anchor.(c)) <- true)
        level.children;
      (* Remaining children take the nearest free physical qubit. *)
      Array.iteri
        (fun c vs ->
          match vs with
          | [] | [ _ ] -> ()
          | _ :: rest ->
              List.iter
                (fun v ->
                  let src = !current_anchor.(c) in
                  let dist = Qls_graph.Bfs.distances (Device.graph device) src in
                  let best = ref (-1) in
                  for p = 0 to n_phys - 1 do
                    if
                      (not taken'.(p))
                      && (!best < 0 || dist.(p) < dist.(!best))
                    then best := p
                  done;
                  if !best < 0 then invalid_arg "Mlqls: out of physical qubits";
                  fine_anchor.(v) <- !best;
                  taken'.(!best) <- true)
                rest)
        level.children;
      refine device fine_graph fine_anchor taken';
      current_anchor := fine_anchor;
      current_taken := taken')
    levels;
  ignore !current_taken;
  Mapping.of_array ~n_physical:(Device.n_qubits device) !current_anchor

let route ?(options = default_options) ?initial device circuit =
  let opts = options in
  let start =
    match initial with
    | Some m -> m
    | None ->
        (* Covers coarsening, greedy anchor placement and the per-level
           refinement sweeps; the routing phase shows up as Sabre's own
           spans. *)
        Qls_obs.with_span ~site:"router" "mlqls.place" (fun () ->
            place ~options device circuit)
  in
  let routing =
    { Sabre.default_options with bidirectional_passes = 0; seed = opts.seed }
  in
  Sabre.route ~options:routing ~initial:start device circuit

let router ?(options = default_options) () =
  {
    Router.name = "mlqls";
    route = (fun ?initial device circuit -> route ~options ?initial device circuit);
  }
