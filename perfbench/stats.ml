let rank ~n q =
  if q < 0.0 || q > 1.0 then invalid_arg "Stats: quantile outside [0, 1]";
  (* The epsilon keeps q * n from rounding past an exact integer:
     0.9 *. 100. is 90.00000000000001 in binary floating point. *)
  int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))

let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  sorted.(max 0 (rank ~n q - 1))

let min_tail = 10
let tail_samples ~n q = n - rank ~n q

let percentile sorted q =
  if tail_samples ~n:(Array.length sorted) q >= min_tail then
    Some (nearest_rank sorted q)
  else None

let min_samples q =
  let rec go n = if tail_samples ~n q >= min_tail then n else go (n + 1) in
  go min_tail

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no samples"
  | xs ->
      let sum =
        List.fold_left
          (fun acc x ->
            if not (x > 0.0) then
              invalid_arg "Stats.geomean: non-positive sample";
            acc +. log x)
          0.0 xs
      in
      exp (sum /. float_of_int (List.length xs))

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* splitmix64's finaliser over the pair, truncated to 30 bits so the
   result fits every int-typed seed field downstream. *)
let pass_seed ~seed ~pass =
  let open Int64 in
  let mix z =
    let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
    logxor z (shift_right_logical z 31)
  in
  let z = mix (add (of_int seed) (mul (of_int pass) 0x9e3779b97f4a7c15L)) in
  to_int (logand z 0x3fffffffL)
