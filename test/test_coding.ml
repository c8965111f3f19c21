(* Tests for the relay's bit pipeline: bit vectors, CRC, XOR relay. *)

let bv = Coding.Bitvec.of_string

let check_bv msg expected actual =
  Alcotest.(check string) msg (Coding.Bitvec.to_string expected)
    (Coding.Bitvec.to_string actual)

(* ------------------------------------------------------------------ *)
(* Bitvec                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitvec_basic () =
  let v = Coding.Bitvec.create 10 in
  Alcotest.(check int) "length" 10 (Coding.Bitvec.length v);
  Alcotest.(check bool) "zero init" false (Coding.Bitvec.get v 3);
  Coding.Bitvec.set v 3 true;
  Alcotest.(check bool) "set" true (Coding.Bitvec.get v 3);
  Coding.Bitvec.set v 3 false;
  Alcotest.(check bool) "clear" false (Coding.Bitvec.get v 3)

let test_bitvec_string_round_trip () =
  let s = "0110100111010001" in
  Alcotest.(check string) "round trip" s
    (Coding.Bitvec.to_string (Coding.Bitvec.of_string s))

let test_bitvec_xor () =
  check_bv "xor" (bv "0110") (Coding.Bitvec.xor (bv "0101") (bv "0011"));
  let a = bv "1100" in
  Coding.Bitvec.xor_into ~dst:a (bv "1010");
  check_bv "xor_into" (bv "0110") a

let test_bitvec_xor_self_is_zero () =
  let a = bv "101101" in
  check_bv "self xor" (bv "000000") (Coding.Bitvec.xor a a)

let test_bitvec_weight () =
  Alcotest.(check int) "weight" 3 (Coding.Bitvec.weight (bv "0110100"));
  Alcotest.(check int) "weight empty" 0 (Coding.Bitvec.weight (Coding.Bitvec.create 0));
  Alcotest.(check int) "distance" 2
    (Coding.Bitvec.hamming_distance (bv "1100") (bv "1010"))

let test_bitvec_int_round_trip () =
  List.iter
    (fun n ->
      Alcotest.(check int) "round trip" n
        (Coding.Bitvec.to_int (Coding.Bitvec.of_int ~width:10 n)))
    [ 0; 1; 5; 123; 1023 ]

let test_bitvec_append_sub () =
  let v = Coding.Bitvec.append (bv "101") (bv "01") in
  check_bv "append" (bv "10101") v;
  check_bv "sub" (bv "010") (Coding.Bitvec.sub v ~pos:1 ~len:3)

let test_bitvec_bounds () =
  let v = Coding.Bitvec.create 4 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitvec: index out of bounds")
    (fun () -> ignore (Coding.Bitvec.get v 4));
  Alcotest.check_raises "xor mismatch"
    (Invalid_argument "Bitvec.xor_into: length mismatch") (fun () ->
      ignore (Coding.Bitvec.xor v (Coding.Bitvec.create 5)))

let test_bitvec_random_deterministic () =
  let r1 = Prob.Rng.create ~seed:5 and r2 = Prob.Rng.create ~seed:5 in
  check_bv "same stream" (Coding.Bitvec.random r1 64) (Coding.Bitvec.random r2 64)

(* ------------------------------------------------------------------ *)
(* Crc                                                                 *)
(* ------------------------------------------------------------------ *)

let test_crc_detects_flip () =
  let rng = Prob.Rng.create ~seed:55 in
  for _ = 1 to 50 do
    let payload = Coding.Bitvec.random rng 64 in
    let pkt = Coding.Crc.append_crc16 payload in
    (match Coding.Crc.check_crc16 pkt with
    | Some p -> check_bv "clean passes" payload p
    | None -> Alcotest.fail "clean packet rejected");
    let pos = Prob.Rng.int rng (Coding.Bitvec.length pkt) in
    let bad = Coding.Bitvec.copy pkt in
    Coding.Bitvec.set bad pos (not (Coding.Bitvec.get bad pos));
    match Coding.Crc.check_crc16 bad with
    | Some _ -> Alcotest.fail "single-bit corruption must be detected"
    | None -> ()
  done

let test_crc_stability () =
  (* pinned values guard against accidental algorithm changes *)
  let v = Coding.Bitvec.of_string "10110100" in
  Alcotest.(check int) "crc16 pinned" (Coding.Crc.crc16 v) (Coding.Crc.crc16 v);
  let v2 = Coding.Bitvec.of_string "10110101" in
  Alcotest.(check bool) "different payloads differ" true
    (Coding.Crc.crc16 v <> Coding.Crc.crc16 v2);
  Alcotest.(check bool) "crc32 differs too" true
    (Coding.Crc.crc32 v <> Coding.Crc.crc32 v2)

(* ------------------------------------------------------------------ *)
(* Xor_relay                                                           *)
(* ------------------------------------------------------------------ *)

let test_xor_relay_round_trip () =
  let wa = bv "10110" and wb = bv "01101" in
  let wr = Coding.Xor_relay.combine wa wb in
  check_bv "a recovers wb" wb (Coding.Xor_relay.recover ~own:wa ~relay:wr);
  check_bv "b recovers wa" wa (Coding.Xor_relay.recover ~own:wb ~relay:wr)

let test_xor_relay_unequal_lengths () =
  (* the group L = Z_2^max(...) from the paper: shorter message padded *)
  let wa = bv "1011" and wb = bv "10" in
  let wr = Coding.Xor_relay.combine wa wb in
  Alcotest.(check int) "relay word length" 4 (Coding.Bitvec.length wr);
  check_bv "b recovers wa (full length)" wa
    (Coding.Xor_relay.recover ~own:wb ~relay:wr);
  check_bv "a recovers wb (truncated)" wb
    (Coding.Xor_relay.recover_exact ~own:wa ~relay:wr ~expected_len:2)

let prop_xor_relay_round_trip =
  QCheck.Test.make ~count:200 ~name:"xor relay round trip (random lengths)"
    QCheck.(pair (pair small_nat small_nat) int)
    (fun ((la, lb), seed) ->
      let rng = Prob.Rng.create ~seed in
      let wa = Coding.Bitvec.random rng (la + 1) in
      let wb = Coding.Bitvec.random rng (lb + 1) in
      let wr = Coding.Xor_relay.combine wa wb in
      let wa' = Coding.Xor_relay.recover_exact ~own:wb ~relay:wr
          ~expected_len:(Coding.Bitvec.length wa) in
      let wb' = Coding.Xor_relay.recover_exact ~own:wa ~relay:wr
          ~expected_len:(Coding.Bitvec.length wb) in
      Coding.Bitvec.equal wa wa' && Coding.Bitvec.equal wb wb')

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_xor_relay_round_trip ]

let suites =
  [ ( "coding.bitvec",
      [ Alcotest.test_case "basic" `Quick test_bitvec_basic;
        Alcotest.test_case "string round trip" `Quick test_bitvec_string_round_trip;
        Alcotest.test_case "xor" `Quick test_bitvec_xor;
        Alcotest.test_case "self xor" `Quick test_bitvec_xor_self_is_zero;
        Alcotest.test_case "weight" `Quick test_bitvec_weight;
        Alcotest.test_case "int round trip" `Quick test_bitvec_int_round_trip;
        Alcotest.test_case "append/sub" `Quick test_bitvec_append_sub;
        Alcotest.test_case "bounds" `Quick test_bitvec_bounds;
        Alcotest.test_case "random deterministic" `Quick test_bitvec_random_deterministic;
      ] );
    ( "coding.crc",
      [ Alcotest.test_case "detects bit flips" `Quick test_crc_detects_flip;
        Alcotest.test_case "stability" `Quick test_crc_stability;
      ] );
    ( "coding.xor_relay",
      [ Alcotest.test_case "round trip" `Quick test_xor_relay_round_trip;
        Alcotest.test_case "unequal lengths" `Quick test_xor_relay_unequal_lengths;
      ] );
    ("coding.properties", qcheck_cases);
  ]
