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

(* Literal values, so that a change to the bit stream or to how far it
   advances the generator shows. *)
let test_bitvec_random_pinned () =
  let rng = Prob.Rng.create ~seed:2024 in
  Alcotest.(check string) "77 bits"
    "10110110011111111111000011110000111101100100101011111001101001011010010101011"
    (Coding.Bitvec.to_string (Coding.Bitvec.random rng 77));
  Alcotest.(check int64) "next draw" 2794010202501134814L (Prob.Rng.next_int64 rng);
  let rng = Prob.Rng.split (Prob.Rng.create ~seed:5) in
  let v = Coding.Bitvec.random rng 30_000 in
  Alcotest.(check int) "weight of 30 kbit" 14895 (Coding.Bitvec.weight v);
  Alcotest.(check int) "crc16 of 30 kbit" 0xB636 (Coding.Crc.crc16 v);
  Alcotest.(check int64) "next draw after 30 kbit" (-3133048258946857669L)
    (Prob.Rng.next_int64 rng)

(* A boxed draw per bit would cost ~6 minor words a bit; the bulk draw
   keeps the state unboxed, so a 30 kbit vector costs a handful of minor
   words (its bytes go straight to the major heap). *)
let test_bitvec_random_alloc () =
  let rng = Prob.Rng.create ~seed:9 in
  ignore (Sys.opaque_identity (Coding.Bitvec.random rng 30_000));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Coding.Bitvec.random rng 30_000));
  let words = Gc.minor_words () -. w0 in
  if words >= 64. then
    Alcotest.failf "Bitvec.random 30 kbit allocated %.0f minor words" words

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
  (* the CRC-16/CCITT-FALSE check value: crc16("123456789") = 0x29B1,
     bytes fed MSB-first as the algorithm specifies *)
  let s = "123456789" in
  let bits = Coding.Bitvec.create (8 * String.length s) in
  String.iteri
    (fun i c ->
      let b = Char.code c in
      for j = 0 to 7 do
        if (b lsr (7 - j)) land 1 = 1 then Coding.Bitvec.set bits ((8 * i) + j) true
      done)
    s;
  Alcotest.(check int) "check value" 0x29B1 (Coding.Crc.crc16 bits);
  let v = Coding.Bitvec.of_string "10110100" in
  let v2 = Coding.Bitvec.of_string "10110101" in
  Alcotest.(check bool) "different payloads differ" true
    (Coding.Crc.crc16 v <> Coding.Crc.crc16 v2)

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

let test_xor_relay_validation () =
  Alcotest.check_raises "negative expected length"
    (Invalid_argument "Xor_relay.recover_exact: negative expected length")
    (fun () ->
      ignore
        (Coding.Xor_relay.recover_exact ~own:(bv "10") ~relay:(bv "1011")
           ~expected_len:(-1)));
  Alcotest.check_raises "own longer than relay"
    (Invalid_argument "Xor_relay.recover: own message longer than relay word")
    (fun () ->
      ignore (Coding.Xor_relay.recover_exact ~own:(bv "101") ~relay:(bv "10") ~expected_len:1))

(* ------------------------------------------------------------------ *)
(* Oracles: per-bit references that share no code with the byte and   *)
(* word paths under test. They read with [get] and build with          *)
(* [of_bool_array], so [equal] against them also checks that the bits  *)
(* past the length stay zero.                                          *)
(* ------------------------------------------------------------------ *)

(* the bitwise CRC-16/CCITT-FALSE loop *)
let crc16_oracle bits =
  let crc = ref 0xFFFF in
  for i = 0 to Coding.Bitvec.length bits - 1 do
    let bit = if Coding.Bitvec.get bits i then 1 else 0 in
    let top = (!crc lsr 15) land 1 in
    crc := (!crc lsl 1) land 0xFFFF;
    if top lxor bit = 1 then crc := !crc lxor 0x1021
  done;
  !crc

let bit v i = i < Coding.Bitvec.length v && Coding.Bitvec.get v i

let ref_init n f = Coding.Bitvec.of_bool_array (Array.init n f)

let ref_append a b =
  let la = Coding.Bitvec.length a in
  ref_init (la + Coding.Bitvec.length b) (fun i ->
      if i < la then bit a i else bit b (i - la))

let ref_sub v ~pos ~len = ref_init len (fun i -> bit v (pos + i))

(* xor with the shorter word zero-padded; also [xor] on equal lengths *)
let ref_combine a b =
  ref_init (max (Coding.Bitvec.length a) (Coding.Bitvec.length b)) (fun i ->
      bit a i <> bit b i)

let ref_frame w = ref_append w (Coding.Bitvec.of_int ~width:16 (crc16_oracle w))

(* vectors drawn from QCheck's own generator, not from [Bitvec.random] *)
let arb_bits max_len =
  QCheck.map ~rev:Coding.Bitvec.to_bool_array Coding.Bitvec.of_bool_array
    QCheck.(array_of_size Gen.(0 -- max_len) bool)

let prop_crc16_oracle =
  QCheck.Test.make ~count:300 ~name:"crc16 = bitwise oracle (lengths 0-300)"
    (arb_bits 300)
    (fun v -> Coding.Crc.crc16 v = crc16_oracle v)

let prop_append_oracle =
  QCheck.Test.make ~count:300 ~name:"append = per-bit reference"
    (QCheck.pair (arb_bits 100) (arb_bits 100))
    (fun (a, b) -> Coding.Bitvec.equal (Coding.Bitvec.append a b) (ref_append a b))

let prop_sub_oracle =
  QCheck.Test.make ~count:100 ~name:"sub = per-bit reference (every pos/len)"
    (arb_bits 70)
    (fun v ->
      let n = Coding.Bitvec.length v in
      let ok = ref true in
      for pos = 0 to n do
        for len = 0 to n - pos do
          if not (Coding.Bitvec.equal (Coding.Bitvec.sub v ~pos ~len) (ref_sub v ~pos ~len))
          then ok := false
        done
      done;
      !ok)

let prop_xor_oracle =
  QCheck.Test.make ~count:300 ~name:"xor = per-bit reference"
    QCheck.(array_of_size Gen.(0 -- 300) (pair bool bool))
    (fun pairs ->
      let a = Coding.Bitvec.of_bool_array (Array.map fst pairs) in
      let b = Coding.Bitvec.of_bool_array (Array.map snd pairs) in
      Coding.Bitvec.equal (Coding.Bitvec.xor a b) (ref_combine a b))

let prop_recover_exact_oracle =
  QCheck.Test.make ~count:300 ~name:"recover_exact = per-bit reference"
    QCheck.(triple (arb_bits 150) (arb_bits 150) small_nat)
    (fun (x, y, e) ->
      (* own is the shorter word, relay the longer one *)
      let own, relay =
        if Coding.Bitvec.length x <= Coding.Bitvec.length y then (x, y) else (y, x)
      in
      let expected_len = e mod (Coding.Bitvec.length relay + 1) in
      Coding.Bitvec.equal
        (Coding.Xor_relay.recover_exact ~own ~relay ~expected_len)
        (ref_sub (ref_combine own relay) ~pos:0 ~len:expected_len))

let prop_combine_framed_oracle =
  QCheck.Test.make ~count:300 ~name:"combine_framed = framed per-bit combine"
    QCheck.(pair (arb_bits 150) (arb_bits 150))
    (fun (a, b) ->
      let fa = Coding.Crc.append_crc16 a and fb = Coding.Crc.append_crc16 b in
      Coding.Bitvec.equal fa (ref_frame a)
      && (match Coding.Xor_relay.combine_framed fa fb with
         | Some r -> Coding.Bitvec.equal r (ref_frame (ref_combine a b))
         | None -> false)
      && Coding.Bitvec.equal (Coding.Xor_relay.combine a b) (ref_combine a b))

let prop_random_stream =
  QCheck.Test.make ~count:300 ~name:"random = successive Rng.bool draws"
    QCheck.(triple (int_bound 300) int bool)
    (fun (n, seed, split) ->
      let base = Prob.Rng.create ~seed in
      let rng = if split then Prob.Rng.split base else base in
      let twin = Prob.Rng.copy rng in
      let v = Coding.Bitvec.random rng n in
      let expected = ref_init n (fun _ -> Prob.Rng.bool twin) in
      Coding.Bitvec.equal v expected
      && Prob.Rng.next_int64 rng = Prob.Rng.next_int64 twin)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_xor_relay_round_trip; prop_crc16_oracle; prop_append_oracle;
      prop_sub_oracle; prop_xor_oracle; prop_recover_exact_oracle;
      prop_combine_framed_oracle; prop_random_stream ]

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
        Alcotest.test_case "random pinned" `Quick test_bitvec_random_pinned;
        Alcotest.test_case "random allocation budget" `Quick test_bitvec_random_alloc;
      ] );
    ( "coding.crc",
      [ Alcotest.test_case "detects bit flips" `Quick test_crc_detects_flip;
        Alcotest.test_case "stability" `Quick test_crc_stability;
      ] );
    ( "coding.xor_relay",
      [ Alcotest.test_case "round trip" `Quick test_xor_relay_round_trip;
        Alcotest.test_case "unequal lengths" `Quick test_xor_relay_unequal_lengths;
        Alcotest.test_case "validation" `Quick test_xor_relay_validation;
      ] );
    ("coding.properties", qcheck_cases);
  ]
