(* SplitMix64 (Steele, Lea, Flood, OOPSLA 2014): full 2^64 period per
   stream, passes BigCrush, and supports stream splitting. Each
   generator carries its own additive constant ("gamma"); [create]
   always uses the golden-ratio gamma so seeded sequences are stable
   across versions, while [split] derives a fresh odd gamma for the
   child so two streams whose states ever coincide still diverge. *)

type t = { mutable state : int64; gamma : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed; gamma = golden_gamma }

let copy t = { state = t.state; gamma = t.gamma }

(* splitmix64 output mix; [@inline] so that [fill_bits] keeps the state
   unboxed without flambda *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state t.gamma;
  mix t.state

let popcount64 x =
  let c = ref 0 in
  let x = ref x in
  while !x <> 0L do
    x := Int64.logand !x (Int64.sub !x 1L);
    incr c
  done;
  !c

(* The published mixGamma: a MurmurHash3-finalizer variant forced odd,
   with a guard that the constant has at least 24 bit transitions so the
   Weyl sequence it drives is well mixed. *)
let mix_gamma z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33)) 0xC4CEB9FE1A85EC53L in
  let z = Int64.logor (Int64.logxor z (Int64.shift_right_logical z 33)) 1L in
  if popcount64 (Int64.logxor z (Int64.shift_right_logical z 1)) < 24 then
    Int64.logxor z 0xAAAAAAAAAAAAAAAAL
  else z

let split t =
  let seed_bits = next_int64 t in
  let gamma_bits = next_int64 t in
  { state = seed_bits; gamma = mix_gamma gamma_bits }

let float t =
  (* top 53 bits -> [0, 1) *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let float_range t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* rejection sampling to avoid modulo bias *)
  let n64 = Int64.of_int n in
  let rec draw () =
    let bits = Int64.shift_right_logical (next_int64 t) 1 in
    let v = Int64.rem bits n64 in
    if Int64.sub bits v > Int64.sub Int64.max_int (Int64.sub n64 1L) then
      draw ()
    else Int64.to_int v
  in
  draw ()

let bool t = Int64.logand (next_int64 t) 1L = 1L

let fill_bits t buf len =
  if len < 0 || len > 8 * Bytes.length buf then
    invalid_arg "Rng.fill_bits: length out of range";
  (* one draw per bit, as [bool] makes it: eight straight-line draws per
     whole byte, then one per bit of the last partial byte. The state
     stays in a local so that it is never boxed. *)
  let gamma = t.gamma in
  let state = ref t.state in
  let[@inline] bit s k = (Int64.to_int (mix s) land 1) lsl k in
  for byte = 0 to (len / 8) - 1 do
    let s0 = Int64.add !state gamma in
    let s1 = Int64.add s0 gamma in
    let s2 = Int64.add s1 gamma in
    let s3 = Int64.add s2 gamma in
    let s4 = Int64.add s3 gamma in
    let s5 = Int64.add s4 gamma in
    let s6 = Int64.add s5 gamma in
    let s7 = Int64.add s6 gamma in
    state := s7;
    Bytes.unsafe_set buf byte
      (Char.unsafe_chr
         (bit s0 0 lor bit s1 1 lor bit s2 2 lor bit s3 3 lor bit s4 4
          lor bit s5 5 lor bit s6 6 lor bit s7 7))
  done;
  let r = len land 7 in
  if r > 0 then begin
    let acc = ref 0 in
    for k = 0 to r - 1 do
      state := Int64.add !state gamma;
      acc := !acc lor bit !state k
    done;
    Bytes.unsafe_set buf (len / 8) (Char.unsafe_chr !acc)
  end;
  t.state <- !state

let bernoulli t ~p = float t < p
