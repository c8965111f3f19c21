(* The shorter word is xored into a prefix of the longer one, which is
   the same as zero-padding it. *)

let combine wa wb =
  let long, short =
    if Bitvec.length wa >= Bitvec.length wb then (wa, wb) else (wb, wa)
  in
  let r = Bitvec.copy long in
  Bitvec.xor_prefix_into ~dst:r short ~len:(Bitvec.length short);
  r

let combine_framed fa fb =
  if not (Crc.valid_crc16 fa && Crc.valid_crc16 fb) then None
  else begin
    let la = Bitvec.length fa - 16 and lb = Bitvec.length fb - 16 in
    let r = Bitvec.create (max la lb + 16) in
    Bitvec.xor_prefix_into ~dst:r fa ~len:la;
    Bitvec.xor_prefix_into ~dst:r fb ~len:lb;
    Crc.seal_crc16 r;
    Some r
  end

let check_own ~own ~relay =
  if Bitvec.length own > Bitvec.length relay then
    invalid_arg "Xor_relay.recover: own message longer than relay word"

let recover ~own ~relay =
  check_own ~own ~relay;
  let r = Bitvec.copy relay in
  Bitvec.xor_prefix_into ~dst:r own ~len:(Bitvec.length own);
  r

let recover_exact ~own ~relay ~expected_len =
  check_own ~own ~relay;
  if expected_len < 0 then
    invalid_arg "Xor_relay.recover_exact: negative expected length";
  if expected_len > Bitvec.length relay then
    invalid_arg "Xor_relay.recover_exact: expected length too large";
  let r = Bitvec.sub relay ~pos:0 ~len:expected_len in
  Bitvec.xor_prefix_into ~dst:r own ~len:(min expected_len (Bitvec.length own));
  r
