(** Bit vectors over GF(2), packed into bytes.

    A vector's length is fixed except through {!reset} and
    {!random_into}, which let one vector carry block after block: its
    buffer grows to the longest length it has held and is kept, so a
    warm vector is rewritten without allocating. *)

type t

val create : int -> t
(** All-zero vector of the given length; length 0 is allowed. *)

val reset : t -> int -> unit
(** [reset t len] makes [t] the all-zero vector of length [len], in
    place. It reuses [t]'s buffer when that holds [len] bits; otherwise
    it replaces it with one at least twice as long. Raises
    [Invalid_argument] on a negative length or on {!empty}. *)

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> bool -> unit

val get_byte : t -> int -> int
(** [get_byte t i] holds bits [8i .. 8i+7] of [t], bit [8i] in the least
    significant position; bits past the length read as zero. Valid for
    [0 <= i < (length t + 7) / 8]. *)

val get_uint32_le : t -> int -> int
(** [get_uint32_le t i] holds bits [8i .. 8i+31] of [t], bit [8i] in the
    least significant position, as a non-negative int: the little-endian
    word of bytes [i .. i+3] that {!get_byte} reads one at a time. Valid
    for [0 <= i] and [i + 4 <= (length t + 7) / 8]; allocates nothing. *)

val empty : t
(** The vector of length 0. *)

val copy : t -> t
val equal : t -> t -> bool

val xor_equal_prefix : t -> mask:t -> t -> len:int -> bool
(** [xor_equal_prefix a ~mask b ~len] holds when [a xor mask] equals [b]
    on bits [0 .. len-1], with [mask] zero-padded past its length (so
    {!empty} compares [a] with [b]). Requires [len] to be at most the
    lengths of [a] and [b]; [mask] may have any length. Allocates
    nothing. *)

val xor : t -> t -> t
(** Componentwise GF(2) addition; lengths must agree. This is the
    relay's network-coding combine: [w_r = w_a xor w_b]. *)

val xor_into : dst:t -> t -> unit
(** In-place xor of the second argument into [dst]; lengths must agree. *)

val xor_prefix_into : dst:t -> t -> len:int -> unit
(** [xor_prefix_into ~dst src ~len] xors the first [len] bits of [src]
    into the first [len] bits of [dst], leaving the rest of [dst] as it
    was; requires [len] to be at most both lengths. Xoring into a zero
    vector copies those bits. *)

val weight : t -> int
(** Hamming weight. *)

val random : Prob.Rng.t -> int -> t
(** Uniformly random vector of the given length, drawn by
    {!Prob.Rng.fill_bits}. *)

val random_into : Prob.Rng.t -> t -> int -> unit
(** [random_into rng t len] makes [t] the vector {!random} [rng len]
    would return, drawing the same bits, in place; its buffer is reused
    as by {!reset}. *)

val of_string : string -> t
(** ["0110"]-style literals; raises [Invalid_argument] on other chars. *)

val to_string : t -> string

val of_bool_array : bool array -> t
val to_bool_array : t -> bool array

val of_int : width:int -> int -> t
(** Little-endian binary expansion of a non-negative integer
    [n < 2^width], [width <= 62]; raises [Invalid_argument] otherwise. *)

val to_int : t -> int
(** Inverse of {!of_int}; requires length <= 62. *)

val append : t -> t -> t
val sub : t -> pos:int -> len:int -> t

val pp : Format.formatter -> t -> unit
