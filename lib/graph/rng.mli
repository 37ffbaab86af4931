(** Deterministic splittable pseudo-random number generator.

    All stochastic components of the library (benchmark generation, router
    tie-breaking, trial seeds) draw from this generator rather than the
    global {!Stdlib.Random} state, so that every experiment is reproducible
    from a single integer seed, independent of evaluation order and of the
    OCaml runtime version.

    The implementation is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014),
    which is the standard seeding generator of the Java and Rust ecosystems:
    a 64-bit state advanced by a Weyl sequence and finalised by a
    variant of the MurmurHash3 finaliser. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] creates a fresh generator from an integer seed. Equal
    seeds yield equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. Use this to
    hand child components their own generators without coupling their
    consumption patterns. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is a uniform float in [\[0, bound)]. *)

val bool : t -> bool
(** [bool t] is a uniform boolean. *)

val pick : t -> 'a list -> 'a
(** [pick t xs] is a uniformly chosen element of [xs].
    @raise Invalid_argument if [xs] is empty. *)

val pick_array : t -> 'a array -> 'a
(** [pick_array t xs] is a uniformly chosen element of [xs].
    @raise Invalid_argument if [xs] is empty. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t xs] permutes [xs] in place with a Fisher-Yates shuffle. *)

val shuffle_list : t -> 'a list -> 'a list
(** [shuffle_list t xs] is a uniformly shuffled copy of [xs]. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [0 .. n-1]. *)
