(* SplitMix64: 64-bit splittable PRNG. Reference: Steele, Lea & Flood,
   "Fast splittable pseudorandom number generators", OOPSLA 2014. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  (* MurmurHash3-style finaliser (the "mix13" variant used by SplitMix64). *)
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = s }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on 63 nonnegative bits to avoid modulo bias. The
     rejection region is at most [bound - 1] values out of 2^63, so the loop
     terminates almost immediately; a try cap keeps it total regardless. *)
  let bound64 = Int64.of_int bound in
  let max_valid = Int64.sub Int64.max_int (Int64.rem Int64.max_int bound64) in
  let rec go tries =
    let r = Int64.shift_right_logical (bits64 t) 1 in
    if Int64.compare r max_valid >= 0 && tries < 64 then go (tries + 1)
    else Int64.to_int (Int64.rem r bound64)
  in
  go 0

let float t bound =
  (* 53 uniform bits, scaled. *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r /. 9007199254740992.0 *. bound

let bool t = Int64.compare (Int64.logand (bits64 t) 1L) 1L = 0

let pick_array t xs =
  if Array.length xs = 0 then invalid_arg "Rng.pick_array: empty array";
  xs.(int t (Array.length xs))

let pick t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ :: _ -> pick_array t (Array.of_list xs)

let shuffle t xs =
  let n = Array.length xs in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done

let shuffle_list t xs =
  let arr = Array.of_list xs in
  shuffle t arr;
  Array.to_list arr

let permutation t n =
  let p = Array.init n (fun i -> i) in
  shuffle t p;
  p
