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
    [combine] of the two payloads, built in one allocation without
    copying either payload out; [None] when a checksum fails. *)

val recover : own:Bitvec.t -> relay:Bitvec.t -> Bitvec.t
(** [recover ~own ~relay] gives the opposite terminal's message (padded
    to the relay word length); requires [length own <= length relay]. *)

val recover_exact : own:Bitvec.t -> relay:Bitvec.t -> expected_len:int ->
  Bitvec.t
(** Like {!recover} but truncates to the opposite message's true length
    [expected_len], which must lie in [0, length relay]. *)
