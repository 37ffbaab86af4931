(** Minimal mutable binary min-heap of int ids.

    Used by the A*-based router's layer search. The heap stores ids
    only; the priority of id [i] is [keys.(i)] in a [float array] the
    caller owns and passes to every {!push} and {!pop}, so neither call
    takes a float argument (which would be boxed). Ids pop by ascending
    (key, id): among equal keys the smaller id first, so a caller that
    issues ids in push order gets FIFO among ties, which keeps searches
    deterministic. *)

type t
(** A min-heap of ids. *)

val create : unit -> t
(** An empty heap. *)

val is_empty : t -> bool
(** Whether the heap holds no ids. *)

val size : t -> int
(** Number of queued ids. *)

val push : t -> float array -> int -> unit
(** [push q keys id] inserts [id] with priority [keys.(id)]. [keys.(id)]
    must not change while [id] is queued, and every call on [q] must
    pass the same priorities for the ids it holds. *)

val pop : t -> float array -> int
(** Remove and return the id with the least (key, id).
    @raise Invalid_argument when the heap is empty. *)

val clear : t -> unit
(** Drop all ids, keeping the storage for reuse. *)
