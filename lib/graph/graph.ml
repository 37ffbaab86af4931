type edge = int * int

type t = {
  n : int;
  adj : int array array; (* sorted neighbour arrays *)
  edges : edge array;    (* canonical (u < v), sorted lexicographically *)
  inc : int array array; (* per vertex: ascending indices into [edges] *)
}

let canon u v = if u < v then (u, v) else (v, u)

let compare_edge (u1, v1) (u2, v2) =
  match Int.compare u1 u2 with 0 -> Int.compare v1 v2 | c -> c

let check_endpoint n v =
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Graph: vertex %d outside [0, %d)" v n)

let create n edge_list =
  if n < 0 then invalid_arg "Graph.create: negative vertex count";
  let module ES = Set.Make (struct
    type t = int * int
    let compare = compare_edge
  end) in
  let set =
    List.fold_left
      (fun acc (u, v) ->
        check_endpoint n u;
        check_endpoint n v;
        if u = v then
          invalid_arg (Printf.sprintf "Graph.create: self-loop on %d" u);
        ES.add (canon u v) acc)
      ES.empty edge_list
  in
  let edges = Array.of_list (ES.elements set) in
  let deg = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let adj = Array.init n (fun v -> Array.make deg.(v) 0) in
  let fill = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    edges;
  Array.iter (fun nbrs -> Array.sort Int.compare nbrs) adj;
  (* Incident edge indices: edges are scanned in ascending index order, so
     each per-vertex list comes out ascending without a sort. *)
  let inc = Array.init n (fun v -> Array.make deg.(v) 0) in
  let ifill = Array.make n 0 in
  Array.iteri
    (fun i (u, v) ->
      inc.(u).(ifill.(u)) <- i;
      ifill.(u) <- ifill.(u) + 1;
      inc.(v).(ifill.(v)) <- i;
      ifill.(v) <- ifill.(v) + 1)
    edges;
  { n; adj; edges; inc }

let empty n = create n []
let n_vertices g = g.n
let n_edges g = Array.length g.edges
let edges g = Array.to_list g.edges
let edge_array g = Array.copy g.edges

let edge_at g i =
  if i < 0 || i >= Array.length g.edges then
    invalid_arg (Printf.sprintf "Graph.edge_at: index %d outside [0, %d)" i
                   (Array.length g.edges));
  g.edges.(i)

let incident_edges g v =
  check_endpoint g.n v;
  g.inc.(v)

let mem_edge g u v =
  if u < 0 || u >= g.n || v < 0 || v >= g.n || u = v then false
  else begin
    (* Binary search in the sorted neighbour array of the lower-degree
       endpoint. *)
    let a, x =
      if Array.length g.adj.(u) <= Array.length g.adj.(v) then (g.adj.(u), v)
      else (g.adj.(v), u)
    in
    let lo = ref 0 and hi = ref (Array.length a) in
    let found = ref false in
    while (not !found) && !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) = x then found := true
      else if a.(mid) < x then lo := mid + 1
      else hi := mid
    done;
    !found
  end

let neighbors g v =
  check_endpoint g.n v;
  Array.to_list g.adj.(v)

let neighbors_array g v =
  check_endpoint g.n v;
  g.adj.(v)

let degree g v =
  check_endpoint g.n v;
  Array.length g.adj.(v)

let max_degree g =
  Array.fold_left (fun acc nbrs -> max acc (Array.length nbrs)) 0 g.adj

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun nbrs ->
      let d = Array.length nbrs in
      Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
    g.adj;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort compare_edge

let add_edges g es = create g.n (es @ Array.to_list g.edges)

let induced g vs =
  let back = Array.of_list vs in
  let k = Array.length back in
  let fwd = Hashtbl.create k in
  Array.iteri
    (fun i v ->
      check_endpoint g.n v;
      if Hashtbl.mem fwd v then
        invalid_arg "Graph.induced: duplicate vertex in selection";
      Hashtbl.add fwd v i)
    back;
  let es =
    Array.fold_left
      (fun acc (u, v) ->
        match (Hashtbl.find_opt fwd u, Hashtbl.find_opt fwd v) with
        | Some u', Some v' -> (u', v') :: acc
        | _ -> acc)
      [] g.edges
  in
  (create k es, back)

let components g =
  let seen = Array.make g.n false in
  let comps = ref [] in
  for start = 0 to g.n - 1 do
    if not seen.(start) then begin
      let queue = Queue.create () in
      Queue.add start queue;
      seen.(start) <- true;
      let members = ref [] in
      while not (Queue.is_empty queue) do
        let v = Queue.pop queue in
        members := v :: !members;
        Array.iter
          (fun w ->
            if not seen.(w) then begin
              seen.(w) <- true;
              Queue.add w queue
            end)
          g.adj.(v)
      done;
      comps := List.sort Int.compare !members :: !comps
    end
  done;
  List.rev !comps

let is_connected g = g.n <= 1 || List.length (components g) = 1

let fold_edges f g acc =
  Array.fold_left (fun acc (u, v) -> f u v acc) acc g.edges

let iter_edges f g = Array.iter (fun (u, v) -> f u v) g.edges

let equal g h = g.n = h.n && g.edges = h.edges

let relabel g perm =
  if Array.length perm <> g.n then
    invalid_arg "Graph.relabel: permutation size mismatch";
  let seen = Array.make g.n false in
  Array.iter
    (fun p ->
      check_endpoint g.n p;
      if seen.(p) then invalid_arg "Graph.relabel: not a permutation";
      seen.(p) <- true)
    perm;
  create g.n
    (Array.to_list g.edges |> List.map (fun (u, v) -> (perm.(u), perm.(v))))

let complement_edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    for v = g.n - 1 downto u + 1 do
      if not (mem_edge g u v) then acc := (u, v) :: !acc
    done
  done;
  !acc
