(** CRC error detection for simulator packets. *)

val crc16 : Bitvec.t -> int
(** CRC-16/CCITT-FALSE over the bit vector (MSB-first over the bits,
    init 0xFFFF, polynomial 0x1021; ["123456789"] gives 0x29B1).

    It is computed in the reflected form of the same CRC: polynomial
    0x8408 over the bits in vector order, the register bit-reversed once
    at the end. That order is the vector's byte layout, so the bulk goes
    slicing-by-8 (eight 256-entry tables, eight bytes per step),
    then one table step per leftover whole byte, then one step per bit
    for the last [length mod 8] bits. Every function below uses it. *)

val append_crc16 : Bitvec.t -> Bitvec.t
(** Payload followed by its 16 checksum bits. *)

val append_crc16_into : dst:Bitvec.t -> Bitvec.t -> unit
(** [append_crc16_into ~dst payload] makes [dst] the vector
    {!append_crc16} [payload] would return, in place, reusing [dst]'s
    buffer as {!Bitvec.reset} does. Raises [Invalid_argument] when
    [dst] is [payload]. *)

val check_crc16 : Bitvec.t -> Bitvec.t option
(** Validates a vector produced by {!append_crc16}; returns the payload
    when the checksum matches, [None] otherwise. The payload is copied
    only when it matches. *)

val valid_crc16 : Bitvec.t -> bool
(** [check_crc16 v <> None], without copying the payload. *)

val seal_crc16 : Bitvec.t -> unit
(** Overwrites the last 16 bits of a vector with the checksum of the
    bits before them, after which {!valid_crc16} holds. Raises
    [Invalid_argument] on a vector shorter than 16 bits. *)
