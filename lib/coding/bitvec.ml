(* [data] may be longer than the [bytes_needed len] bytes in use, so
   that a reused vector keeps its buffer. Every bit past [len], in the
   last byte in use and in every later byte, is zero: [equal] and
   [weight] compare and count bytes, and a vector that grows back over
   old bytes finds them clear. *)
type t = { mutable len : int; mutable data : Bytes.t }

let bytes_needed len = (len + 7) / 8

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; data = Bytes.make (bytes_needed len) '\000' }

let empty = create 0

(* Gives [t] length [len], leaving bytes [0, bytes_needed len) for the
   caller to overwrite and clearing the bytes in use past them. A buffer
   too short is replaced by one at least twice as long, so a vector
   reused across lengths stops allocating. *)
let resize t len =
  if len < 0 then invalid_arg "Bitvec: negative length";
  if t == empty then invalid_arg "Bitvec: the shared empty vector cannot be resized";
  let nb = bytes_needed len and used = bytes_needed t.len in
  if nb > Bytes.length t.data then
    t.data <- Bytes.make (max nb (2 * Bytes.length t.data)) '\000'
  else if nb < used then Bytes.fill t.data nb (used - nb) '\000';
  t.len <- len

let reset t len =
  resize t len;
  Bytes.fill t.data 0 (bytes_needed len) '\000'

let length t = t.len

let check_index t i =
  if i < 0 || i >= t.len then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check_index t i;
  let byte = Char.code (Bytes.get t.data (i / 8)) in
  byte land (1 lsl (i mod 8)) <> 0

let set t i v =
  check_index t i;
  let pos = i / 8 in
  let byte = Char.code (Bytes.get t.data pos) in
  let mask = 1 lsl (i mod 8) in
  let byte = if v then byte lor mask else byte land lnot mask in
  Bytes.set t.data pos (Char.chr (byte land 0xFF))

let get_byte t i =
  if i < 0 || i >= bytes_needed t.len then
    invalid_arg "Bitvec.get_byte: index out of bounds";
  Char.code (Bytes.get t.data i)

let get_uint32_le t i = Int32.to_int (Bytes.get_int32_le t.data i) land 0xFFFF_FFFF

let copy t = { len = t.len; data = Bytes.sub t.data 0 (bytes_needed t.len) }

(* the buffers may differ in length past the bytes in use *)
let equal a b =
  a.len = b.len
  &&
  let rec same i = i < 0 || (Bytes.get a.data i = Bytes.get b.data i && same (i - 1)) in
  same (bytes_needed a.len - 1)

(* The padding bits of [mask] are zero, so its bytes read as the
   zero-padded mask up to its byte length, and as zero past it. Each
   loop stops at the first difference. *)
let xor_equal_prefix a ~mask b ~len =
  if len < 0 || len > a.len || len > b.len then
    invalid_arg "Bitvec.xor_equal_prefix: length out of range";
  let a = a.data and b = b.data and m = mask.data in
  let full = len / 8 in
  let masked = min full (bytes_needed mask.len) in
  let byte v j = if j < Bytes.length v then Char.code (Bytes.get v j) else 0 in
  let ok = ref true and j = ref 0 in
  while !ok && !j + 8 <= masked do
    ok :=
      Int64.logxor (Bytes.get_int64_le a !j) (Bytes.get_int64_le b !j)
      = Bytes.get_int64_le m !j;
    j := !j + 8
  done;
  while !ok && !j < masked do
    ok := byte a !j lxor byte b !j = byte m !j;
    incr j
  done;
  while !ok && !j + 8 <= full do
    ok := Bytes.get_int64_le a !j = Bytes.get_int64_le b !j;
    j := !j + 8
  done;
  while !ok && !j < full do
    ok := byte a !j = byte b !j;
    incr j
  done;
  let r = len land 7 in
  !ok
  && (r = 0 || (byte a full lxor byte b full lxor byte m full) land ((1 lsl r) - 1) = 0)

let xor_prefix_into ~dst src ~len =
  if len < 0 || len > dst.len || len > src.len then
    invalid_arg "Bitvec.xor_prefix_into: length out of range";
  let d = dst.data and s = src.data in
  let full = len / 8 in
  let words = full / 8 in
  for w = 0 to words - 1 do
    let i = 8 * w in
    Bytes.set_int64_le d i
      (Int64.logxor (Bytes.get_int64_le d i) (Bytes.get_int64_le s i))
  done;
  for i = 8 * words to full - 1 do
    Bytes.set d i
      (Char.unsafe_chr (Char.code (Bytes.get d i) lxor Char.code (Bytes.get s i)))
  done;
  let r = len land 7 in
  if r > 0 then begin
    let x = Char.code (Bytes.get s full) land ((1 lsl r) - 1) in
    Bytes.set d full (Char.unsafe_chr (Char.code (Bytes.get d full) lxor x))
  end

let xor_into ~dst src =
  if dst.len <> src.len then invalid_arg "Bitvec.xor_into: length mismatch";
  xor_prefix_into ~dst src ~len:dst.len

let xor a b =
  let r = copy a in
  xor_into ~dst:r b;
  r

let popcount_byte = Array.init 256 (fun b ->
    let rec count b acc = if b = 0 then acc else count (b lsr 1) (acc + (b land 1)) in
    count b 0)

let weight t =
  let acc = ref 0 in
  for i = 0 to bytes_needed t.len - 1 do
    acc := !acc + popcount_byte.(Char.code (Bytes.get t.data i))
  done;
  !acc

let random_into rng t len =
  resize t len;
  Prob.Rng.fill_bits rng t.data len

let random rng len =
  let t = create len in
  random_into rng t len;
  t

let of_string s =
  let t = create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set t i true
      | _ -> invalid_arg "Bitvec.of_string: expected only '0' and '1'")
    s;
  t

let to_string t = String.init t.len (fun i -> if get t i then '1' else '0')

let of_bool_array a =
  let t = create (Array.length a) in
  Array.iteri (fun i v -> if v then set t i true) a;
  t

let to_bool_array t = Array.init t.len (get t)

let of_int ~width n =
  if n < 0 then invalid_arg "Bitvec.of_int: negative";
  if width < 0 || width > 62 then invalid_arg "Bitvec.of_int: bad width";
  if n lsr width <> 0 then invalid_arg "Bitvec.of_int: does not fit";
  let t = create width in
  for i = 0 to width - 1 do
    if (n lsr i) land 1 = 1 then set t i true
  done;
  t

let to_int t =
  if t.len > 62 then invalid_arg "Bitvec.to_int: too wide";
  let acc = ref 0 in
  for i = t.len - 1 downto 0 do
    acc := (!acc lsl 1) lor (if get t i then 1 else 0)
  done;
  !acc

let append a b =
  let t = create (a.len + b.len) in
  Bytes.blit a.data 0 t.data 0 (bytes_needed a.len);
  let q = a.len / 8 and s = a.len land 7 in
  if s = 0 then Bytes.blit b.data 0 t.data q (bytes_needed b.len)
  else begin
    (* byte i of b straddles bytes q+i and q+i+1 of t; a's padding bits
       in byte q are zero, so or-ing b in is enough *)
    let n = Bytes.length t.data in
    for i = 0 to bytes_needed b.len - 1 do
      let x = Char.code (Bytes.get b.data i) and j = q + i in
      Bytes.set t.data j
        (Char.unsafe_chr ((Char.code (Bytes.get t.data j) lor (x lsl s)) land 0xFF));
      if j + 1 < n then Bytes.set t.data (j + 1) (Char.unsafe_chr (x lsr (8 - s)))
    done
  end;
  t

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Bitvec.sub: out of bounds";
  let r = create len in
  let nb = Bytes.length r.data in
  let q = pos / 8 and s = pos land 7 in
  if s = 0 then Bytes.blit t.data q r.data 0 nb
  else begin
    let src_bytes = Bytes.length t.data in
    for i = 0 to nb - 1 do
      let lo = Char.code (Bytes.get t.data (q + i)) lsr s in
      let hi =
        if q + i + 1 < src_bytes then Char.code (Bytes.get t.data (q + i + 1)) lsl (8 - s)
        else 0
      in
      Bytes.set r.data i (Char.unsafe_chr ((lo lor hi) land 0xFF))
    done
  end;
  (* the copied bytes may carry bits of [t] past [pos + len] *)
  let tail = len land 7 in
  if tail > 0 then
    Bytes.set r.data (nb - 1)
      (Char.unsafe_chr (Char.code (Bytes.get r.data (nb - 1)) land ((1 lsl tail) - 1)));
  r

let pp fmt t = Format.pp_print_string fmt (to_string t)
