let distances g src =
  let n = Graph.n_vertices g in
  let dist = Array.make n max_int in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun w ->
        if dist.(w) = max_int then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w queue
        end)
      (Graph.neighbors_array g v)
  done;
  dist

let edge_order g ~sources ~skip =
  let n = Graph.n_vertices g in
  let visited = Array.make n false in
  let emitted = Hashtbl.create 64 in
  let canon u v = if u < v then (u, v) else (v, u) in
  let out = ref [] in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if not visited.(s) then begin
        visited.(s) <- true;
        Queue.add s queue
      end)
    sources;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun w ->
        if not (skip v w) then begin
          let key = canon v w in
          if not (Hashtbl.mem emitted key) then begin
            Hashtbl.add emitted key ();
            out := (v, w) :: !out
          end;
          if not visited.(w) then begin
            visited.(w) <- true;
            Queue.add w queue
          end
        end)
      (Graph.neighbors_array g v)
  done;
  List.rev !out

let path g u v =
  let n = Graph.n_vertices g in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  let queue = Queue.create () in
  seen.(u) <- true;
  Queue.add u queue;
  let found = ref (u = v) in
  while (not !found) && not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    Array.iter
      (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          parent.(w) <- x;
          if w = v then found := true;
          Queue.add w queue
        end)
      (Graph.neighbors_array g x)
  done;
  if not !found then None
  else begin
    let rec build acc x = if x = u then x :: acc else build (x :: acc) parent.(x) in
    Some (build [] v)
  end
