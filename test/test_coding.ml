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
  Alcotest.(check int) "weight of a xor" 2
    (Coding.Bitvec.weight (Coding.Bitvec.xor (bv "1100") (bv "1010")))

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
   words. Its 469-word buffer is over the minor heap's 256-word limit,
   so it is allocated on the major heap, which this count does not see;
   the simulator reuses buffers through [random_into] instead (see the
   warm-block test in netsim.runner). *)
let test_bitvec_random_alloc () =
  let rng = Prob.Rng.create ~seed:9 in
  ignore (Sys.opaque_identity (Coding.Bitvec.random rng 30_000));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Coding.Bitvec.random rng 30_000));
  let words = Gc.minor_words () -. w0 in
  if words >= 64. then
    Alcotest.failf "Bitvec.random 30 kbit allocated %.0f minor words" words

(* [fill_bits] into a longer buffer writes bytes [0, (len+7)/8) only,
   zero-pads the last of them, draws as [bool] does and leaves the
   generator where those draws would. Lengths 0..130 cover every
   residue mod 8 on both sides of the eight-draw loop. *)
let test_fill_bits_longer_buffer () =
  for len = 0 to 130 do
    let rng = Prob.Rng.create ~seed:(100 + len) in
    let twin = Prob.Rng.copy rng in
    let buf = Bytes.make 24 '\xA5' in
    Prob.Rng.fill_bits rng buf len;
    let nb = (len + 7) / 8 in
    for i = 0 to (8 * nb) - 1 do
      let got = Char.code (Bytes.get buf (i / 8)) land (1 lsl (i mod 8)) <> 0 in
      let want = i < len && Prob.Rng.bool twin in
      if got <> want then Alcotest.failf "len %d: bit %d" len i
    done;
    for j = nb to Bytes.length buf - 1 do
      if Bytes.get buf j <> '\xA5' then Alcotest.failf "len %d: wrote byte %d" len j
    done;
    if Prob.Rng.next_int64 rng <> Prob.Rng.next_int64 twin then
      Alcotest.failf "len %d: generator state" len
  done

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

let framed_check ~own relay ~expected =
  Coding.Xor_relay.check_framed ~own (Coding.Crc.append_crc16 relay) ~expected

let check_answer msg expected actual =
  Alcotest.(check (option bool)) msg expected actual

let test_xor_relay_round_trip () =
  let wa = bv "10110" and wb = bv "01101" in
  let wr = Coding.Xor_relay.combine wa wb in
  check_answer "a recovers wb" (Some true) (framed_check ~own:wa wr ~expected:wb);
  check_answer "b recovers wa" (Some true) (framed_check ~own:wb wr ~expected:wa);
  check_answer "a wrong guess" (Some false) (framed_check ~own:wa wr ~expected:wa)

let test_xor_relay_unequal_lengths () =
  (* the group L = Z_2^max(...) from the paper: shorter message padded *)
  let wa = bv "1011" and wb = bv "10" in
  let wr = Coding.Xor_relay.combine wa wb in
  Alcotest.(check int) "relay word length" 4 (Coding.Bitvec.length wr);
  check_answer "b recovers wa (full length)" (Some true)
    (framed_check ~own:wb wr ~expected:wa);
  check_answer "a recovers wb (truncated)" (Some true)
    (framed_check ~own:wa wr ~expected:wb);
  check_answer "direct word" (Some true)
    (framed_check ~own:Coding.Bitvec.empty wa ~expected:wa)

let prop_xor_relay_round_trip =
  QCheck.Test.make ~count:200 ~name:"xor relay round trip (random lengths)"
    QCheck.(pair (pair small_nat small_nat) int)
    (fun ((la, lb), seed) ->
      let rng = Prob.Rng.create ~seed in
      let wa = Coding.Bitvec.random rng (la + 1) in
      let wb = Coding.Bitvec.random rng (lb + 1) in
      let fr = Coding.Crc.append_crc16 (Coding.Xor_relay.combine wa wb) in
      Coding.Xor_relay.check_framed ~own:wb fr ~expected:wa = Some true
      && Coding.Xor_relay.check_framed ~own:wa fr ~expected:wb = Some true)

let test_xor_relay_validation () =
  check_answer "expected longer than the payload" (Some false)
    (framed_check ~own:(bv "10") (bv "1011") ~expected:(bv "00111"));
  Alcotest.check_raises "own longer than the payload"
    (Invalid_argument "Xor_relay.check_framed: own message longer than the payload")
    (fun () -> ignore (framed_check ~own:(bv "101") (bv "10") ~expected:(bv "1")));
  (* a failed checksum answers before the lengths are looked at *)
  check_answer "unframed word" None
    (Coding.Xor_relay.check_framed ~own:(bv "101") (bv "10") ~expected:(bv "1"))

(* The check reads the framed word in place: a 30 kbit relay word costs
   no minor words. *)
let test_xor_relay_check_alloc () =
  let rng = Prob.Rng.create ~seed:12 in
  let wa = Coding.Bitvec.random rng 30_000 and wb = Coding.Bitvec.random rng 20_001 in
  let fr = Coding.Crc.append_crc16 (Coding.Xor_relay.combine wa wb) in
  let run () = Coding.Xor_relay.check_framed ~own:wb fr ~expected:wa in
  ignore (Sys.opaque_identity (run ()));
  let w0 = Gc.minor_words () in
  let r = Sys.opaque_identity (run ()) in
  let words = Gc.minor_words () -. w0 in
  check_answer "recovers" (Some true) r;
  if words > 0. then
    Alcotest.failf "check_framed on 30 kbit allocated %.0f minor words" words

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

(* The path {!Coding.Xor_relay.check_framed} replaces, from the per-bit
   references: check the CRC, copy the payload out, xor [own] back in,
   cut it to the expected length and compare. *)
let ref_check ~own framed ~expected =
  let n = Coding.Bitvec.length framed - 16 in
  let payload = ref_sub framed ~pos:0 ~len:(max 0 n) in
  if n < 0 || not (Coding.Bitvec.equal framed (ref_frame payload)) then None
  else begin
    let e = Coding.Bitvec.length expected in
    Some
      (e <= n
      && Coding.Bitvec.equal (ref_sub (ref_combine own payload) ~pos:0 ~len:e) expected)
  end

let flipped v i =
  let c = Coding.Bitvec.copy v in
  Coding.Bitvec.set c i (not (Coding.Bitvec.get c i));
  c

(* One true answer and every single-bit flip that must overturn it: in a
   whole byte and in the last partial byte of [expected] (a wrong
   payload, [Some false]) and of the framed word, and in its CRC tag (a
   failed checksum, [None]). Each answer must match the reference. *)
let check_flips ~own payload ~e =
  let n = Coding.Bitvec.length payload in
  let framed = ref_frame payload in
  let expected = ref_sub (ref_combine own payload) ~pos:0 ~len:e in
  let answer framed expected =
    let got = Coding.Xor_relay.check_framed ~own framed ~expected in
    if got = ref_check ~own framed ~expected then got
    else Alcotest.failf "check_framed disagrees with the reference"
  in
  let in_whole len = if len >= 8 then [ (len / 8 * 8) - 3 ] else [] in
  let in_partial len = if len land 7 <> 0 then [ len - 1 ] else [] in
  answer framed expected = Some true
  && List.for_all (fun i -> answer framed (flipped expected i) = Some false)
       (in_whole e @ in_partial e)
  && List.for_all (fun i -> answer (flipped framed i) expected = None)
       (in_whole n @ in_partial n @ [ n; n + 15 ])

let prop_check_framed_oracle =
  QCheck.Test.make ~count:300 ~name:"check_framed = copying path (per-bit)"
    QCheck.(triple (arb_bits 150) (arb_bits 150) small_nat)
    (fun (x, y, e) ->
      (* own is the shorter word, the relay payload the longer one; the
         expected length falls on either side of own's *)
      let own, payload =
        if Coding.Bitvec.length x <= Coding.Bitvec.length y then (x, y) else (y, x)
      in
      let e = e mod (Coding.Bitvec.length payload + 1) in
      check_flips ~own payload ~e
      && check_flips ~own:Coding.Bitvec.empty payload ~e
      && check_flips ~own payload ~e:0)

let test_check_framed_cases () =
  let st = Random.State.make [| 3 |] in
  let vec n = Coding.Bitvec.of_bool_array (Array.init n (fun _ -> Random.State.bool st)) in
  let payload = vec 77 in
  List.iter
    (fun (msg, own, e) ->
      Alcotest.(check bool) msg true (check_flips ~own payload ~e))
    [ ("own shorter than expected", vec 20, 61);
      ("own longer than expected", vec 70, 45);
      ("expected of length 0", vec 30, 0);
      ("own as long as the payload", vec 77, 77);
      ("direct word", Coding.Bitvec.empty, 77);
    ]

(* Slicing-by-8 reads whole 64-bit words, then whole bytes, then bits:
   every length up to 1,100 bits crosses each residue mod 64 and mod 8. *)
let test_crc_every_length () =
  let st = Random.State.make [| 11 |] in
  for n = 0 to 1100 do
    let v = Coding.Bitvec.of_bool_array (Array.init n (fun _ -> Random.State.bool st)) in
    let framed = ref_frame v in
    let sealed = ref_append v (Coding.Bitvec.of_int ~width:16 (crc16_oracle v lxor 0x5A5A)) in
    Coding.Crc.seal_crc16 sealed;
    if Coding.Crc.crc16 v <> crc16_oracle v then Alcotest.failf "crc16 at %d bits" n;
    if not (Coding.Bitvec.equal (Coding.Crc.append_crc16 v) framed) then
      Alcotest.failf "append_crc16 at %d bits" n;
    if not (Coding.Crc.valid_crc16 framed) then Alcotest.failf "valid_crc16 at %d bits" n;
    if Coding.Crc.valid_crc16 (flipped framed (n / 2)) then
      Alcotest.failf "valid_crc16 missed a flip at %d bits" n;
    if not (Coding.Bitvec.equal sealed framed) then Alcotest.failf "seal_crc16 at %d bits" n
  done

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

(* One set of vectors carries block after block, as the simulator's
   per-domain workspace does. Each block starts long and the sequence
   ends short, with [len_b = 0] as in DT and NAIVE. Every payload, frame
   and relay word must equal the allocating forms run on fresh vectors,
   and the relay word must check out against both messages: a stale
   byte left past a shrunk vector would show there. *)
let prop_reused_vectors =
  QCheck.Test.make ~count:100 ~name:"reused vectors = fresh ones (block sequences)"
    QCheck.(pair int (list_of_size Gen.(0 -- 6) (pair (int_bound 3000) (int_bound 3000))))
    (fun (seed, blocks) ->
      let blocks = ((2900, 2100) :: blocks) @ [ (37, 0); (0, 0) ] in
      let v () = Coding.Bitvec.create 0 in
      let wa = v () and wb = v () and fa = v () and fb = v () and relay = v () in
      let rng = Prob.Rng.create ~seed in
      let twin = Prob.Rng.copy rng in
      let eq = Coding.Bitvec.equal in
      let check ~own framed expected =
        Coding.Xor_relay.check_framed ~own framed ~expected = Some true
      in
      List.for_all
        (fun (la, lb) ->
          Coding.Bitvec.random_into rng wa la;
          Coding.Bitvec.random_into rng wb lb;
          Coding.Crc.append_crc16_into ~dst:fa wa;
          Coding.Crc.append_crc16_into ~dst:fb wb;
          let relayed = Coding.Xor_relay.combine_framed_into ~dst:relay fa fb in
          let a = ref_init la (fun _ -> Prob.Rng.bool twin) in
          let b = ref_init lb (fun _ -> Prob.Rng.bool twin) in
          let fresh_fa = Coding.Crc.append_crc16 a
          and fresh_fb = Coding.Crc.append_crc16 b in
          eq wa a && eq wb b && eq fa fresh_fa && eq fb fresh_fb && relayed
          && (match Coding.Xor_relay.combine_framed fresh_fa fresh_fb with
             | Some r -> eq relay r
             | None -> false)
          && check ~own:wb relay wa && check ~own:wa relay wb
          && check ~own:Coding.Bitvec.empty fb wb)
        blocks)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_xor_relay_round_trip; prop_crc16_oracle; prop_append_oracle;
      prop_sub_oracle; prop_xor_oracle; prop_check_framed_oracle;
      prop_combine_framed_oracle; prop_random_stream; prop_reused_vectors ]

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
        Alcotest.test_case "fill_bits into a longer buffer" `Quick test_fill_bits_longer_buffer;
      ] );
    ( "coding.crc",
      [ Alcotest.test_case "detects bit flips" `Quick test_crc_detects_flip;
        Alcotest.test_case "stability" `Quick test_crc_stability;
        Alcotest.test_case "every length to 1100 bits" `Quick test_crc_every_length;
      ] );
    ( "coding.xor_relay",
      [ Alcotest.test_case "round trip" `Quick test_xor_relay_round_trip;
        Alcotest.test_case "unequal lengths" `Quick test_xor_relay_unequal_lengths;
        Alcotest.test_case "validation" `Quick test_xor_relay_validation;
        Alcotest.test_case "check allocation budget" `Quick test_xor_relay_check_alloc;
        Alcotest.test_case "check: lengths and flips" `Quick test_check_framed_cases;
      ] );
    ("coding.properties", qcheck_cases);
  ]
