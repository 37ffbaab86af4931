type t =
  | G1 of { name : string; q : int }
  | G2 of { name : string; a : int; b : int }

let g1 name q =
  if q < 0 then invalid_arg "Gate.g1: negative qubit";
  G1 { name; q }

let g2 name a b =
  if a < 0 || b < 0 then invalid_arg "Gate.g2: negative qubit";
  if a = b then invalid_arg "Gate.g2: both operands are the same qubit";
  G2 { name; a; b }

let h q = g1 "h" q
let x q = g1 "x" q
let cx a b = g2 "cx" a b
let cz a b = g2 "cz" a b
let swap a b = g2 "swap" a b

let is_two_qubit = function G1 _ -> false | G2 _ -> true
let is_swap = function G2 { name = "swap"; _ } -> true | G1 _ | G2 _ -> false
let name = function G1 { name; _ } | G2 { name; _ } -> name

let qubits = function
  | G1 { q; _ } -> [ q ]
  | G2 { a; b; _ } -> [ a; b ]

let pair = function
  | G1 _ -> invalid_arg "Gate.pair: single-qubit gate"
  | G2 { a; b; _ } -> (a, b)

let acts_on g q =
  match g with
  | G1 { q = q'; _ } -> q = q'
  | G2 { a; b; _ } -> q = a || q = b

let map_qubits f = function
  | G1 { name; q } -> g1 name (f q)
  | G2 { name; a; b } -> g2 name (f a) (f b)

let equal g g' =
  match (g, g') with
  | G1 { name; q }, G1 { name = name'; q = q' } -> name = name' && q = q'
  | G2 { name; a; b }, G2 { name = name'; a = a'; b = b' } ->
      name = name' && a = a' && b = b'
  | G1 _, G2 _ | G2 _, G1 _ -> false

let to_string = function
  | G1 { name; q } -> Printf.sprintf "%s(%d)" name q
  | G2 { name; a; b } -> Printf.sprintf "%s(%d,%d)" name a b
