type t = {
  n_physical : int;
  q2p : int array; (* program -> physical *)
  p2q : int array; (* physical -> program, -1 when empty *)
}

let build n_physical q2p =
  let p2q = Array.make n_physical (-1) in
  Array.iteri
    (fun q p ->
      if p < 0 || p >= n_physical then
        invalid_arg
          (Printf.sprintf "Mapping: physical qubit %d outside [0, %d)" p n_physical);
      if p2q.(p) >= 0 then
        invalid_arg
          (Printf.sprintf "Mapping: physical qubit %d assigned twice" p);
      p2q.(p) <- q)
    q2p;
  { n_physical; q2p; p2q }

let identity ~n_program ~n_physical =
  if n_program > n_physical then
    invalid_arg "Mapping.identity: more program than physical qubits";
  build n_physical (Array.init n_program Fun.id)

let of_array ~n_physical a = build n_physical (Array.copy a)

let random rng ~n_program ~n_physical =
  if n_program > n_physical then
    invalid_arg "Mapping.random: more program than physical qubits";
  let perm = Qls_graph.Rng.permutation rng n_physical in
  build n_physical (Array.sub perm 0 n_program)

let n_program m = Array.length m.q2p
let n_physical m = m.n_physical

let phys m q =
  if q < 0 || q >= Array.length m.q2p then
    invalid_arg (Printf.sprintf "Mapping.phys: bad program qubit %d" q);
  m.q2p.(q)

let prog m p =
  if p < 0 || p >= m.n_physical then
    invalid_arg (Printf.sprintf "Mapping.prog: bad physical qubit %d" p);
  if m.p2q.(p) < 0 then None else Some m.p2q.(p)

let occupant m p =
  if p < 0 || p >= m.n_physical then
    invalid_arg (Printf.sprintf "Mapping.occupant: bad physical qubit %d" p);
  m.p2q.(p)

let phys_table m = m.q2p

let to_array m = Array.copy m.q2p

let swap_tables ~q2p ~p2q p p' =
  let n = Array.length p2q in
  if p < 0 || p >= n || p' < 0 || p' >= n then
    invalid_arg "Mapping.swap_physical: physical qubit out of range";
  if p = p' then invalid_arg "Mapping.swap_physical: identical qubits";
  let a = p2q.(p) and b = p2q.(p') in
  p2q.(p) <- b;
  p2q.(p') <- a;
  if a >= 0 then q2p.(a) <- p';
  if b >= 0 then q2p.(b) <- p

let swap_physical m p p' =
  let q2p = Array.copy m.q2p and p2q = Array.copy m.p2q in
  swap_tables ~q2p ~p2q p p';
  { m with q2p; p2q }

let apply_swaps m swaps =
  List.fold_left (fun m (p, p') -> swap_physical m p p') m swaps

(* No library code calls this: the layout, router, core and integration
   tests use it as their reference equality on mappings. *)
let equal m m' =
  m.n_physical = m'.n_physical
  && Array.length m.q2p = Array.length m'.q2p
  && (m.q2p == m'.q2p
     ||
     let n = Array.length m.q2p in
     let rec go i = i >= n || (m.q2p.(i) = m'.q2p.(i) && go (i + 1)) in
     go 0)

let compose_program_perm m perm =
  if Array.length perm <> Array.length m.q2p then
    invalid_arg "Mapping.compose_program_perm: size mismatch";
  build m.n_physical (Array.map (fun q -> m.q2p.(q)) perm)

let pp ppf m =
  Format.fprintf ppf "@[<hov 2>{";
  Array.iteri (fun q p -> Format.fprintf ppf "%d->%d;@ " q p) m.q2p;
  Format.fprintf ppf "}@]"
