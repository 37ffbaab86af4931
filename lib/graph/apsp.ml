type t = { n : int; dist : int array array }

let unreachable = max_int

let compute g =
  let n = Graph.n_vertices g in
  { n; dist = Array.init n (fun v -> Bfs.distances g v) }

let dist t u v =
  if u < 0 || u >= t.n || v < 0 || v >= t.n then
    invalid_arg "Apsp.dist: vertex out of range";
  t.dist.(u).(v)

let row t u =
  if u < 0 || u >= t.n then invalid_arg "Apsp.row: vertex out of range";
  t.dist.(u)

let matrix t = t.dist

let diameter t =
  let d = ref 0 in
  for u = 0 to t.n - 1 do
    for v = 0 to t.n - 1 do
      if t.dist.(u).(v) = unreachable then
        invalid_arg "Apsp.diameter: graph is disconnected"
      else d := max !d t.dist.(u).(v)
    done
  done;
  !d
