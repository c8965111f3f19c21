type config = {
  protocol : Bidir.Protocol.t;
  power : float;
  fading : Channel.Fading.t;
  deltas : float array;
  ra : float;
  rb : float;
  block_symbols : int;
  messages : int;
  max_retries : int;
  seed : int;
}

type result = {
  delivered_pairs : int;
  dropped_pairs : int;
  total_blocks : int;
  goodput : float;
  mean_attempts : float;
  max_attempts_seen : int;
}

let validate cfg =
  if Array.length cfg.deltas <> Bidir.Protocol.num_phases cfg.protocol then
    invalid_arg "Arq: schedule arity does not match the protocol";
  if cfg.ra < 0. || cfg.rb < 0. then invalid_arg "Arq: negative rates";
  if cfg.block_symbols < 100 then invalid_arg "Arq: block_symbols too small";
  if cfg.messages <= 0 then invalid_arg "Arq: messages must be positive";
  if cfg.max_retries < 0 then invalid_arg "Arq: negative retry budget";
  if cfg.power < 0. then invalid_arg "Arq: negative power";
  let total = Numerics.Float_utils.sum cfg.deltas in
  if not (Numerics.Float_utils.approx_equal ~eps:1e-6 total 1.) then
    invalid_arg "Arq: durations must sum to 1"

(* Note the simplification relative to a production HARQ: failed
   attempts are discarded entirely (no soft combining across attempts),
   and the feedback channel is ideal and free. *)
let run cfg =
  validate cfg;
  let rng = Prob.Rng.create ~seed:cfg.seed in
  let n = cfg.block_symbols in
  let bits_a = int_of_float (cfg.ra *. float_of_int n) in
  let bits_b = int_of_float (cfg.rb *. float_of_int n) in
  let ra_eff = float_of_int bits_a /. float_of_int n in
  let rb_eff = float_of_int bits_b /. float_of_int n in
  let delivered = ref 0 and dropped = ref 0 and blocks = ref 0 in
  let attempts_of_delivered = ref 0 and max_attempts = ref 0 in
  for seq = 0 to cfg.messages - 1 do
    (* one message pair; retry whole-block until both directions land *)
    let rec attempt k =
      incr blocks;
      let gains = Channel.Fading.draw cfg.fading in
      let outcome =
        Runner.decode_outcome cfg.protocol ~power:cfg.power ~gains
          ~deltas:cfg.deltas ~ra:ra_eff ~rb:rb_eff
      in
      (* exercise the bit pipeline so CRC/XOR correctness stays covered *)
      let wa = Coding.Bitvec.random rng (max 1 bits_a) in
      let wb = Coding.Bitvec.random rng (max 1 bits_b) in
      let pair_ok =
        outcome.Runner.b_gets_a && outcome.Runner.a_gets_b
        &&
        let pa = Packet.fresh ~src:Packet.A ~seq wa in
        let pb = Packet.fresh ~src:Packet.B ~seq wb in
        let pr = Packet.xor_payloads pa pb ~src:Packet.R ~seq in
        Coding.Xor_relay.check_framed ~own:wb pr.Packet.payload ~expected:wa
        = Some true
      in
      if pair_ok then begin
        incr delivered;
        attempts_of_delivered := !attempts_of_delivered + k;
        if k > !max_attempts then max_attempts := k
      end
      else if k <= cfg.max_retries then attempt (k + 1)
      else begin
        incr dropped;
        if k > !max_attempts then max_attempts := k
      end
    in
    attempt 1
  done;
  let goodput =
    float_of_int (!delivered * (bits_a + bits_b))
    /. float_of_int (!blocks * n)
  in
  { delivered_pairs = !delivered;
    dropped_pairs = !dropped;
    total_blocks = !blocks;
    goodput;
    mean_attempts =
      (if !delivered = 0 then 0.
       else float_of_int !attempts_of_delivered /. float_of_int !delivered);
    max_attempts_seen = !max_attempts;
  }
