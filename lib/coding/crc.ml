(* CRC-16/CCITT-FALSE, MSB-first over bit index, computed in its
   reflected form. A vector stores bit 8i in the least significant
   position of byte i, which is the order the reflected register
   (polynomial 0x8408) consumes, so bytes and words feed in as stored;
   the register is bit-reversed once at the end. Init 0xFFFF is its own
   reflection. *)

let poly = 0x8408

(* [tables.((256 * k) + b)] is the register after byte [b] followed by
   [k] zero bytes: slicing-by-8 folds one 64-bit word with eight
   lookups. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for b = 0 to 255 do
    let crc = ref b in
    for _ = 1 to 8 do
      crc := if !crc land 1 = 1 then (!crc lsr 1) lxor poly else !crc lsr 1
    done;
    t.(b) <- !crc
  done;
  for k = 1 to 7 do
    for b = 0 to 255 do
      let prev = t.((256 * (k - 1)) + b) in
      t.((256 * k) + b) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* every index below is masked to a byte, so the lookups stay in bounds *)
let tbl k b = Array.unsafe_get tables ((256 * k) + b)

let reverse16 x =
  let r = ref 0 in
  for k = 0 to 15 do
    r := !r lor (((x lsr k) land 1) lsl (15 - k))
  done;
  !r

(* the checksum of the first [len] bits *)
let crc16_prefix bits len =
  let crc = ref 0xFFFF in
  let full = len / 8 in
  let words = full / 8 in
  for w = 0 to words - 1 do
    let lo = Bitvec.get_uint32_le bits (8 * w) lxor !crc in
    let hi = Bitvec.get_uint32_le bits ((8 * w) + 4) in
    crc :=
      tbl 7 (lo land 0xFF)
      lxor tbl 6 ((lo lsr 8) land 0xFF)
      lxor tbl 5 ((lo lsr 16) land 0xFF)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 (hi land 0xFF)
      lxor tbl 2 ((hi lsr 8) land 0xFF)
      lxor tbl 1 ((hi lsr 16) land 0xFF)
      lxor tbl 0 (hi lsr 24)
  done;
  for i = 8 * words to full - 1 do
    crc := (!crc lsr 8) lxor tbl 0 ((!crc lxor Bitvec.get_byte bits i) land 0xFF)
  done;
  for i = 8 * full to len - 1 do
    let bit = if Bitvec.get bits i then 1 else 0 in
    crc := if (!crc lxor bit) land 1 = 1 then (!crc lsr 1) lxor poly else !crc lsr 1
  done;
  reverse16 !crc

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

let append_crc16_into ~dst payload =
  if dst == payload then invalid_arg "Crc.append_crc16_into: dst is the payload";
  let len = Bitvec.length payload in
  Bitvec.reset dst (len + 16);
  Bitvec.xor_prefix_into ~dst payload ~len;
  seal_crc16 dst

let append_crc16 payload =
  let dst = Bitvec.create (Bitvec.length payload + 16) in
  append_crc16_into ~dst payload;
  dst
