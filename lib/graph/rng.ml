(* SplitMix64: 64-bit splittable PRNG. Reference: Steele, Lea & Flood,
   "Fast splittable pseudorandom number generators", OOPSLA 2014.

   The state is 8 bytes read and written as an unboxed [int64], so a
   draw allocates nothing: a mutable [int64] field would box every new
   state, and a recursive retry loop would allocate its closure. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  (* MurmurHash3-style finaliser (the "mix13" variant used by SplitMix64). *)
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let split t = of_state (bits64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on 63 nonnegative bits to avoid modulo bias. The
     rejection region is at most [bound - 1] values out of 2^63, so the loop
     terminates almost immediately; a try cap keeps it total regardless. *)
  let bound64 = Int64.of_int bound in
  let max_valid = Int64.sub Int64.max_int (Int64.rem Int64.max_int bound64) in
  let r = ref (Int64.shift_right_logical (bits64 t) 1) in
  let tries = ref 0 in
  while !r >= max_valid && !tries < 64 do
    r := Int64.shift_right_logical (bits64 t) 1;
    incr tries
  done;
  Int64.to_int (Int64.rem !r bound64)

let float t bound =
  (* 53 uniform bits, scaled. *)
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r /. 9007199254740992.0 *. bound

let bool t = Int64.equal (Int64.logand (bits64 t) 1L) 1L

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
