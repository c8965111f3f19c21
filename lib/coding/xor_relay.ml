(* The shorter word is xored into a prefix of the longer one, which is
   the same as zero-padding it. *)

let combine wa wb =
  let long, short =
    if Bitvec.length wa >= Bitvec.length wb then (wa, wb) else (wb, wa)
  in
  let r = Bitvec.copy long in
  Bitvec.xor_prefix_into ~dst:r short ~len:(Bitvec.length short);
  r

let combine_framed_into ~dst fa fb =
  if dst == fa || dst == fb then
    invalid_arg "Xor_relay.combine_framed_into: dst is an input";
  Crc.valid_crc16 fa && Crc.valid_crc16 fb
  && begin
    let la = Bitvec.length fa - 16 and lb = Bitvec.length fb - 16 in
    Bitvec.reset dst (max la lb + 16);
    Bitvec.xor_prefix_into ~dst fa ~len:la;
    Bitvec.xor_prefix_into ~dst fb ~len:lb;
    Crc.seal_crc16 dst;
    true
  end

let combine_framed fa fb =
  let dst = Bitvec.create 0 in
  if combine_framed_into ~dst fa fb then Some dst else None

let check_framed ~own framed ~expected =
  if not (Crc.valid_crc16 framed) then None
  else begin
    let payload = Bitvec.length framed - 16 in
    if Bitvec.length own > payload then
      invalid_arg "Xor_relay.check_framed: own message longer than the payload";
    let len = Bitvec.length expected in
    if len <= payload && Bitvec.xor_equal_prefix framed ~mask:own expected ~len
    then Some true
    else Some false
  end
