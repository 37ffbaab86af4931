exception Budget_exhausted

(* Order the positive-degree pattern vertices so that every vertex after
   the first of its component has at least one earlier neighbour. Within
   that constraint, prefer high-degree vertices first (fail-fast). *)
let variable_order pattern =
  let n = Graph.n_vertices pattern in
  let placed = Array.make n false in
  let order = ref [] in
  let remaining = ref (List.filter (fun v -> Graph.degree pattern v > 0) (List.init n Fun.id)) in
  let count_placed_nbrs v =
    Array.fold_left
      (fun acc w -> if placed.(w) then acc + 1 else acc)
      0
      (Graph.neighbors_array pattern v)
  in
  while not (List.is_empty !remaining) do
    (* Choose the vertex with (most placed neighbours, then highest degree). *)
    let best =
      List.fold_left
        (fun best v ->
          let key = (count_placed_nbrs v, Graph.degree pattern v) in
          match best with
          | None -> Some (v, key)
          | Some (_, bkey) -> if key > bkey then Some (v, key) else best)
        None !remaining
    in
    match best with
    | None -> assert false
    | Some (v, _) ->
        placed.(v) <- true;
        order := v :: !order;
        remaining := List.filter (fun w -> w <> v) !remaining
  done;
  Array.of_list (List.rev !order)

type state = {
  pattern : Graph.t;
  target : Graph.t;
  core_p : int array; (* pattern vertex -> target vertex or -1 *)
  core_t : int array; (* target vertex -> pattern vertex or -1 *)
  order : int array;
  node_limit : int;
  mutable visited : int;
}

let unmapped_nbr_count g core v =
  Array.fold_left
    (fun acc w -> if core.(w) = -1 then acc + 1 else acc)
    0
    (Graph.neighbors_array g v)

let feasible st h m =
  st.core_t.(m) = -1
  && Graph.degree st.target m >= Graph.degree st.pattern h
  && Array.for_all
       (fun h' ->
         let m' = st.core_p.(h') in
         m' = -1 || Graph.mem_edge st.target m m')
       (Graph.neighbors_array st.pattern h)
  && unmapped_nbr_count st.target st.core_t m
     >= unmapped_nbr_count st.pattern st.core_p h

let candidates st h =
  (* If h has a mapped neighbour, its image must be adjacent to that
     neighbour's image; pick the mapped neighbour with the smallest image
     neighbourhood to enumerate. Otherwise (new component) enumerate all
     unmapped target vertices. *)
  let best = ref None in
  Array.iter
    (fun h' ->
      let m' = st.core_p.(h') in
      if m' >= 0 then
        let d = Graph.degree st.target m' in
        match !best with
        | Some (_, bd) when bd <= d -> ()
        | _ -> best := Some (m', d))
    (Graph.neighbors_array st.pattern h);
  match !best with
  | Some (m', _) -> Array.to_list (Graph.neighbors_array st.target m')
  | None ->
      List.filter (fun m -> st.core_t.(m) = -1)
        (List.init (Graph.n_vertices st.target) Fun.id)

(* Depth-first search; [true] at the first complete assignment. *)
let rec search st depth =
  st.visited <- st.visited + 1;
  if st.visited > st.node_limit then raise Budget_exhausted;
  if depth = Array.length st.order then true
  else begin
    let h = st.order.(depth) in
    let rec try_candidates = function
      | [] -> false
      | m :: rest ->
          if feasible st h m then begin
            st.core_p.(h) <- m;
            st.core_t.(m) <- h;
            let stop = search st (depth + 1) in
            if stop then true
            else begin
              st.core_p.(h) <- -1;
              st.core_t.(m) <- -1;
              try_candidates rest
            end
          end
          else try_candidates rest
    in
    try_candidates (candidates st h)
  end

let complete_isolated st =
  (* Assign degree-0 pattern vertices to arbitrary unmapped target
     vertices. Always possible because |pattern| <= |target|. *)
  let free = ref [] in
  Array.iteri (fun m p -> if p = -1 then free := m :: !free) st.core_t;
  Array.iteri
    (fun h m ->
      if m = -1 then
        match !free with
        | [] -> assert false
        | f :: rest ->
            st.core_p.(h) <- f;
            st.core_t.(f) <- h;
            free := rest)
    st.core_p

let make_state ?(node_limit = max_int) ~pattern ~target () =
  if Graph.n_vertices pattern > Graph.n_vertices target then
    invalid_arg "Vf2: pattern larger than target";
  {
    pattern;
    target;
    core_p = Array.make (Graph.n_vertices pattern) (-1);
    core_t = Array.make (Graph.n_vertices target) (-1);
    order = variable_order pattern;
    node_limit;
    visited = 0;
  }

let find ?node_limit ~pattern ~target () =
  let st = make_state ?node_limit ~pattern ~target () in
  if (try search st 0 with Budget_exhausted -> false) then begin
    complete_isolated st;
    Some (Array.copy st.core_p)
  end
  else None

let exists ?node_limit ~pattern ~target () =
  Option.is_some (find ?node_limit ~pattern ~target ())
