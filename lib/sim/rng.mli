(** Deterministic pseudo-random number generation (splitmix64).

    Every stochastic choice in the testbed draws from an explicit
    [Rng.t] so that whole-world simulations replay bit-for-bit from a
    seed. The state is mutable; use {!split} to derive independent
    streams for independent subsystems. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of
    subsequent draws from [t]. Advances [t]. *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n-1]. Raises [Invalid_argument] if
    [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k l] draws [k] elements of [l] without replacement
    (all of [l] if [k >= length l]). Order is randomised. *)

val zipf : t -> n:int -> s:float -> int
(** [zipf t ~n ~s] samples a rank in [1, n] from a Zipf distribution
    with exponent [s], by inversion on the precomputed CDF. For
    repeated draws with the same parameters prefer {!zipf_sampler}. *)

val zipf_sampler : n:int -> s:float -> t -> int
(** [zipf_sampler ~n ~s] precomputes the CDF once and returns a
    sampling function. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean. *)
