(** Deterministic pseudo-random number generation.

    A small, fast SplitMix64 generator.  All randomised components of the
    library (workload generators, Trojan injection campaigns, property-test
    helpers) take an explicit [Prng.t] so that every experiment is exactly
    reproducible from a seed. *)

type t
(** Mutable generator state.  Drawing an [int] or a [bool] allocates
    nothing. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val mix63 : int -> int
(** Stateless xorshift-multiply finaliser over the native 63-bit int —
    a high-quality hash for counter-based streams.  Hash a structured
    counter instead of advancing mutable state, so any consumer can
    recompute any position of the stream independently, which is what
    hot simulation loops need. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive.

    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in the inclusive range [\[lo, hi\]].

    @raise Invalid_argument if [lo > hi]. *)

val bool : t -> bool
(** Fair coin. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.

    @raise Invalid_argument on an empty array. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct integers from
    [\[0, n)], in random order.

    @raise Invalid_argument if [k > n] or [k < 0]. *)
