(** Deterministic pseudo-random number generation (splitmix64).

    Experiments must be reproducible run-to-run, so all randomness in the
    code base flows through an explicit generator state seeded by the
    caller — never through the global [Random] module. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator; equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t] by two
    draws. The child gets its own state {e and} its own odd additive
    constant (SplitMix64's [mixGamma] applied to a second parent draw),
    so a child stream whose state happens to coincide with another
    stream's still diverges on the next step — the property per-shard
    Monte-Carlo substreams rely on. Useful for giving each simulated
    node or campaign replication its own stream. *)

val copy : t -> t

val next_int64 : t -> int64
(** Raw 64 uniformly random bits. *)

val float : t -> float
(** Uniform float in [0, 1). *)

val float_range : t -> lo:float -> hi:float -> float
(** Uniform float in [lo, hi). *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n); requires [n > 0]. *)

val bool : t -> bool

val fill_bits : t -> Bytes.t -> int -> unit
(** [fill_bits t buf len] writes [len] bits into [buf], LSB-first within
    each byte, bit [i] being the [i]-th of [len] successive {!bool}
    draws; [t] ends where those draws would leave it. The bits from
    [len] up to the end of its last byte are set to zero; later bytes
    are left alone. Raises [Invalid_argument] unless
    [0 <= len <= 8 * Bytes.length buf]. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is true with probability [p]. *)
