(** Deterministic splittable pseudo-random number generator (SplitMix64).

    All randomness in the repository — synthetic workload inputs,
    statistical fault injection, property-test data — flows through this
    module so every experiment is exactly reproducible from a seed. *)

type t

(** [create seed] makes a fresh generator. *)
val create : int -> t

val of_int64 : int64 -> t

(** Raw 64-bit output; advances the state. *)
val bits : t -> int64

val next_int64 : t -> int64

(** [split t] returns a generator statistically independent of the future
    outputs of [t]; [t] advances. *)
val split : t -> t

(** [int t n] is uniform in [0, n). Requires [n > 0]. *)
val int : t -> int -> int

(** Uniform in [0, 1). *)
val float : t -> float

(** Uniform in [lo, hi). *)
val float_range : t -> float -> float -> float

val bool : t -> bool

(** Standard normal deviate (Box-Muller). *)
val gaussian : t -> float
