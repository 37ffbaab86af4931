(** Content-addressed in-memory cache: bounded LRU with single-flight
    computation.

    Four caches share this structure: the daemon's three (device/APSP
    tables, certified instances, routed results) and the campaign's
    certified instances. Two properties matter:

    - {b Single-flight} — when several requests miss on the same key at
      once, exactly one computes; the rest block until the value is
      ready and count as hits. This is what makes the cache hit rate
      (and thus the serve bench's determinism check) exact: for [k]
      distinct keys over [n] requests there are exactly [k] misses,
      whatever the interleaving.
    - {b Bounded} — at most [capacity] ready values are retained; on
      overflow the least-recently-used one is evicted (in-flight
      computations are never evicted). Keys are content-addressed, so
      eviction costs recomputation, never correctness.

    Thread- and domain-safe. A computation that raises releases its slot
    and wakes its waiters; they do not see the exception, and the first
    to wake retries the computation itself. *)

type 'a t

val create : ?capacity:int -> string -> 'a t
(** [create name] makes an empty cache. [capacity] (default 256) bounds
    the number of {e ready} entries; [0] disables retention entirely
    (every lookup computes — useful to switch caching off uniformly). *)

val find_or_compute : 'a t -> key:string -> (unit -> 'a) -> 'a * bool
(** [find_or_compute t ~key f] returns [(value, hit)]: the cached value
    for [key] ([hit = true]), or the result of running [f] now
    ([hit = false]), which is then retained. Waiting on another
    request's in-flight computation counts as a hit. If [f] raises, the
    exception propagates to the computing caller and the slot is
    released. *)

type stats = {
  name : string;
  hits : int;
  misses : int;
  evictions : int;
  size : int;  (** ready entries currently retained *)
  capacity : int;
}

val stats : 'a t -> stats
(** A consistent snapshot of the counters. *)
