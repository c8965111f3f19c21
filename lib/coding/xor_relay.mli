(** The relay's network-coding combine (Section II-C of the paper).

    Messages [w_a] and [w_b] live in the additive group
    [L = Z_2^max(|w_a|, |w_b|)]: the shorter message is zero-padded, the
    relay broadcasts [w_r = w_a xor w_b], and each terminal recovers the
    opposite message by xoring its own message back in. *)

val combine : Bitvec.t -> Bitvec.t -> Bitvec.t
(** [combine w_a w_b] pads to the common length and xors. *)

val combine_framed : Bitvec.t -> Bitvec.t -> Bitvec.t option
(** [combine_framed fa fb] is the relay's combine on CRC-framed words
    (see {!Crc.append_crc16}): when both checksums hold, the framed
    [combine] of the two payloads, built without copying either
    payload out; [None] when a checksum fails. *)

val combine_framed_into : dst:Bitvec.t -> Bitvec.t -> Bitvec.t -> bool
(** [combine_framed_into ~dst fa fb] is {!combine_framed} writing into
    [dst], reusing its buffer as {!Bitvec.reset} does: [true] with
    [dst] the framed combine, or [false] with [dst] untouched when a
    checksum fails. Raises [Invalid_argument] when [dst] is [fa] or
    [fb]. *)

val check_framed : own:Bitvec.t -> Bitvec.t -> expected:Bitvec.t -> bool option
(** [check_framed ~own framed ~expected] is a terminal's check of a
    CRC-framed word (see {!Crc.append_crc16}) without copying its
    payload out: [None] when the checksum fails, otherwise [Some ok],
    where [ok] says whether the payload xor [own] (zero-padded) equals
    [expected] on the first [length expected] bits. A relay word passes
    the terminal's own message as [own]; a direct packet passes
    {!Bitvec.empty}. A payload shorter than [expected] gives
    [Some false]. Raises [Invalid_argument] when the checksum holds and
    [own] is longer than the payload. Allocates nothing. *)
