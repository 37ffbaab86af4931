(* Frozen reference copy of the flat-slot closed set that
   [Astar_router.Closed]'s diff slots replaced: every mapping stored as a
   whole program->physical table, keyed by the same Zobrist hash and
   compared in full on every key match. Test-only: the property in
   test_qls_router.ml checks that the new set answers every [add] and
   [mem] as this one does. Do not edit it to match a change in
   [Closed]; a difference is what the property exists to find. *)

module Rng = Qls_graph.Rng
module Mapping = Qls_layout.Mapping

let extend a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

type t = {
  n_prog : int;
  z : int array;
  mutable maps : int array;
  mutable keys : int array;
  mutable slots : int;
  mutable table : int array;
  mutable stamp : int array;
  mutable mask : int;
  gen : int;
}

let create ~n_prog ~n_phys =
  let rng = Rng.create ((n_prog * 0x9e3779b9) lxor n_phys) in
  let z =
    Array.init (max 1 (n_prog * n_phys)) (fun _ ->
        Int64.to_int (Rng.bits64 rng) land max_int)
  in
  let n_slots = 64 and cap = 1024 in
  {
    n_prog;
    z;
    maps = Array.make (n_slots * n_prog) 0;
    keys = Array.make n_slots 0;
    slots = 0;
    table = Array.make cap 0;
    stamp = Array.make cap (-1);
    mask = cap - 1;
    gen = 0;
  }

let alloc t =
  let s = t.slots in
  if s = Array.length t.keys then begin
    t.maps <- extend t.maps (2 * s * t.n_prog) 0;
    t.keys <- extend t.keys (2 * s) 0
  end;
  t.slots <- s + 1;
  s

let load t m =
  let s = alloc t in
  let q2p = Mapping.phys_table m and off = s * t.n_prog in
  for q = 0 to t.n_prog - 1 do
    t.maps.(off + q) <- q2p.(q)
  done;
  s

let hash t s =
  let n = t.n_prog in
  let off = s * n in
  let h = ref 0 in
  for q = 0 to n - 1 do
    h := !h lxor t.z.((t.maps.(off + q) * n) + q)
  done;
  !h

let equal t s s' =
  let n = t.n_prog and a = s' * t.n_prog and b = s * t.n_prog in
  let q = ref 0 in
  while !q < n && t.maps.(a + !q) = t.maps.(b + !q) do
    incr q
  done;
  !q = n

let find t h ~src =
  let i = ref (h land t.mask) in
  while
    t.stamp.(!i) = t.gen
    && not (t.keys.(t.table.(!i)) = h && equal t t.table.(!i) src)
  do
    i := (!i + 1) land t.mask
  done;
  !i

let grow_table t =
  let old_table = t.table and old_stamp = t.stamp in
  let cap = 2 * (t.mask + 1) in
  t.table <- Array.make cap 0;
  t.stamp <- Array.make cap (-1);
  t.mask <- cap - 1;
  for i = 0 to Array.length old_table - 1 do
    if old_stamp.(i) = t.gen then begin
      let s = old_table.(i) in
      let j = ref (t.keys.(s) land t.mask) in
      while t.stamp.(!j) = t.gen do
        j := (!j + 1) land t.mask
      done;
      t.table.(!j) <- s;
      t.stamp.(!j) <- t.gen
    end
  done

let add_last t h =
  let s = t.slots - 1 in
  t.keys.(s) <- h;
  if 2 * t.slots > t.mask + 1 then grow_table t;
  let i = find t h ~src:s in
  if t.stamp.(i) = t.gen then begin
    t.slots <- s;
    false
  end
  else begin
    t.table.(i) <- s;
    t.stamp.(i) <- t.gen;
    true
  end

let add t m =
  let s = load t m in
  add_last t (hash t s)

let mem t m =
  let s = load t m in
  let found = t.stamp.(find t (hash t s) ~src:s) = t.gen in
  t.slots <- s;
  found
