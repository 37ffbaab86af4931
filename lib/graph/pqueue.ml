(* Bucket queue of int ids over small non-negative int keys. Bucket [k]
   is a FIFO list of the ids queued under key [k], threaded through
   [next] (indexed by id) from [head.(k)] to [tail.(k)]; [-1] ends a
   list and marks an empty bucket. Pops take the head of the lowest
   non-empty bucket, so ids leave by ascending key and in push order
   within a key. *)

type t = {
  mutable head : int array; (* per key: first queued id, or -1 *)
  mutable tail : int array; (* per key: last queued id, while head >= 0 *)
  mutable next : int array; (* per id: next id in its bucket, or -1 *)
  mutable lo : int; (* no queued id has a key below [lo] *)
  mutable hi : int; (* highest key pushed since the last clear, or -1 *)
  mutable size : int;
}

let create () =
  {
    head = Array.make 64 (-1);
    tail = Array.make 64 0;
    next = Array.make 64 0;
    lo = max_int;
    hi = -1;
    size = 0;
  }

let is_empty q = q.size = 0
let size q = q.size

(* Only buckets up to [hi] can be non-empty. *)
let clear q =
  for k = 0 to q.hi do
    q.head.(k) <- -1
  done;
  q.lo <- max_int;
  q.hi <- -1;
  q.size <- 0

let push q ~key id =
  if key < 0 then invalid_arg "Pqueue.push: negative key";
  let n = Array.length q.head in
  if key >= n then begin
    q.head <- Array.append q.head (Array.make (max (key + 1) n) (-1));
    q.tail <- Array.append q.tail (Array.make (max (key + 1) n) 0)
  end;
  if id >= Array.length q.next then
    q.next <- Array.append q.next (Array.make (id + 1) 0);
  q.next.(id) <- -1;
  if q.head.(key) < 0 then q.head.(key) <- id else q.next.(q.tail.(key)) <- id;
  q.tail.(key) <- id;
  if key < q.lo then q.lo <- key;
  if key > q.hi then q.hi <- key;
  q.size <- q.size + 1

let pop q =
  if q.size = 0 then invalid_arg "Pqueue.pop: empty queue";
  (* A queued id exists and its key lies in [lo, hi], so the scan stops
     by [hi]. *)
  let k = ref q.lo in
  while q.head.(!k) < 0 do
    incr k
  done;
  q.lo <- !k;
  let id = q.head.(!k) in
  q.head.(!k) <- q.next.(id);
  q.size <- q.size - 1;
  id
