(** Bucket queue of int ids keyed by small non-negative ints: the open
    set of the A*-based router's layer search.

    Ids pop by ascending key, first in first out among equal keys, so a
    caller that issues ids in push order pops by ascending (key, id) and
    its search stays deterministic. {!push} and {!pop} are O(1) apart
    from the pop's scan over empty buckets. A key may be below the
    current minimum (an inadmissible heuristic is not monotone); the
    bucket array grows to the largest key pushed. *)

type t
(** A queue of ids. *)

val create : unit -> t
(** An empty queue. *)

val is_empty : t -> bool
(** Whether the queue holds no ids. *)

val size : t -> int
(** Number of queued ids. *)

val push : t -> key:int -> int -> unit
(** [push q ~key id] queues [id] under [key]. [id] must be non-negative
    and not already queued.
    @raise Invalid_argument when [key] is negative. *)

val pop : t -> int
(** Remove and return the id with the least key, the first pushed
    among equal keys.
    @raise Invalid_argument when the queue is empty. *)

val clear : t -> unit
(** Drop all ids, keeping the storage for reuse. Costs one store per
    bucket up to the highest key pushed since the last clear. *)
