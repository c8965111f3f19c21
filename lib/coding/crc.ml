(* CRC-16/CCITT-FALSE, MSB-first over bit index. A vector stores bit 8i
   in the least significant position of byte i, so each whole byte is
   bit-reversed before the usual MSB-first table step; the last
   [len mod 8] bits go through the bitwise loop. *)

let reverse8 =
  Array.init 256 (fun b ->
      let r = ref 0 in
      for k = 0 to 7 do
        if (b lsr k) land 1 = 1 then r := !r lor (1 lsl (7 - k))
      done;
      !r)

let table =
  Array.init 256 (fun b ->
      let crc = ref (b lsl 8) in
      for _ = 1 to 8 do
        crc :=
          if !crc land 0x8000 <> 0 then ((!crc lsl 1) lxor 0x1021) land 0xFFFF
          else (!crc lsl 1) land 0xFFFF
      done;
      !crc)

(* the checksum of the first [len] bits *)
let crc16_prefix bits len =
  let crc = ref 0xFFFF in
  for i = 0 to (len / 8) - 1 do
    let b = reverse8.(Bitvec.get_byte bits i) in
    crc := ((!crc lsl 8) land 0xFFFF) lxor table.((!crc lsr 8) lxor b)
  done;
  for i = len land lnot 7 to len - 1 do
    let bit = if Bitvec.get bits i then 1 else 0 in
    let top = (!crc lsr 15) land 1 in
    crc := (!crc lsl 1) land 0xFFFF;
    if top lxor bit = 1 then crc := !crc lxor 0x1021
  done;
  !crc

let crc16 bits = crc16_prefix bits (Bitvec.length bits)

(* The tag is the last 16 bits, little-endian as {!Bitvec.of_int} writes
   it. *)
let tag bits =
  let base = Bitvec.length bits - 16 in
  let t = ref 0 in
  for i = 15 downto 0 do
    t := (!t lsl 1) lor (if Bitvec.get bits (base + i) then 1 else 0)
  done;
  !t

let append_crc16 payload =
  Bitvec.append payload (Bitvec.of_int ~width:16 (crc16 payload))

let valid_crc16 packet =
  let len = Bitvec.length packet in
  len >= 16 && crc16_prefix packet (len - 16) = tag packet

let check_crc16 packet =
  if valid_crc16 packet then
    Some (Bitvec.sub packet ~pos:0 ~len:(Bitvec.length packet - 16))
  else None

let seal_crc16 packet =
  let base = Bitvec.length packet - 16 in
  if base < 0 then invalid_arg "Crc.seal_crc16: shorter than a tag";
  let crc = crc16_prefix packet base in
  for i = 0 to 15 do
    Bitvec.set packet (base + i) ((crc lsr i) land 1 = 1)
  done
