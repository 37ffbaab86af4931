(* Binary min-heap of int ids. The heap array holds ids only; each id's
   priority lives in a caller-owned [float array] indexed by the id, so
   a push or pop passes an array pointer and ints, never a float — a
   float argument to a call that is not inlined is boxed, and this build
   has no flambda to unbox it. Order is (key, id) lexicographic: ids are
   distinct, so it is a strict total order and the pop sequence is fixed
   by it alone. A caller that issues ids in push order gets FIFO among
   equal keys. *)

type t = { mutable heap : int array; mutable size : int }

let create () = { heap = [||]; size = 0 }
let is_empty q = q.size = 0
let size q = q.size
let clear q = q.size <- 0

let less (keys : float array) a b =
  keys.(a) < keys.(b) || (keys.(a) = keys.(b) && a < b)

let grow q =
  let cap = Array.length q.heap in
  if q.size = cap then begin
    let heap = Array.make (max 16 (2 * cap)) 0 in
    Array.blit q.heap 0 heap 0 cap;
    q.heap <- heap
  end

let push q keys id =
  grow q;
  q.size <- q.size + 1;
  (* Sift up with a hole: parents slide down until the insertion point. *)
  let i = ref (q.size - 1) in
  while !i > 0 && less keys id q.heap.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    q.heap.(!i) <- q.heap.(parent);
    i := parent
  done;
  q.heap.(!i) <- id

let pop q keys =
  if q.size = 0 then invalid_arg "Pqueue.pop: empty queue";
  let top = q.heap.(0) in
  q.size <- q.size - 1;
  if q.size > 0 then begin
    (* Sift the displaced last id down with a hole: children bubble up
       until its slot is found. *)
    let m = q.heap.(q.size) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < q.size && not (less keys m q.heap.(l)) then smallest := l;
      if
        r < q.size
        &&
        if !smallest = !i then not (less keys m q.heap.(r))
        else less keys q.heap.(r) q.heap.(!smallest)
      then smallest := r;
      if !smallest = !i then continue := false
      else begin
        q.heap.(!i) <- q.heap.(!smallest);
        i := !smallest
      end
    done;
    q.heap.(!i) <- m
  end;
  top
