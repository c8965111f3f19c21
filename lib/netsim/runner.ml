let log_src = Logs.Src.create "netsim" ~doc:"bidirectional relay simulator"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode =
  | Adaptive of { backoff : float }
  | Fixed of { deltas : float array; ra : float; rb : float }

type config = {
  protocol : Bidir.Protocol.t;
  power : float;
  fading : Channel.Fading.t;
  mode : mode;
  block_symbols : int;
  blocks : int;
  seed : int;
}

type result = {
  metrics : Metrics.t;
  analytic_mean_sum_rate : float;
  elapsed_symbols : float;
}

type plan = { deltas : float array; ra : float; rb : float; optimum : float }

(* Decode outcomes of one block. [failed_phase] points at the earliest
   phase whose constraint broke (for outage attribution). *)
type block_outcome = {
  relay_ok : bool;
  b_gets_a : bool;
  a_gets_b : bool;
  failed_phase : int option;
}

let validate cfg =
  (match cfg.mode with
  | Adaptive { backoff } ->
    if backoff < 0. || backoff >= 1. then
      invalid_arg "Runner: backoff must be in [0, 1)"
  | Fixed { deltas; ra; rb } ->
    if Array.length deltas <> Bidir.Protocol.num_phases cfg.protocol then
      invalid_arg "Runner: schedule arity does not match the protocol";
    if ra < 0. || rb < 0. then invalid_arg "Runner: negative fixed rates";
    let total = Numerics.Float_utils.sum deltas in
    if not (Numerics.Float_utils.approx_equal ~eps:1e-6 total 1.) then
      invalid_arg "Runner: fixed durations must sum to 1");
  if cfg.block_symbols < 100 then
    invalid_arg "Runner: block_symbols must be at least 100";
  if cfg.blocks <= 0 then invalid_arg "Runner: blocks must be positive";
  if cfg.power < 0. then invalid_arg "Runner: negative power"

(* one LP optimum per block: the adaptive schedule and the analytic
   benchmark both come from it *)
let plan cfg gains =
  let s = Bidir.Gaussian.scenario_lin ~power:cfg.power ~gains in
  let r = Bidir.Optimize.sum_rate cfg.protocol Bidir.Bound.Inner s in
  let optimum = r.Bidir.Optimize.sum_rate in
  match cfg.mode with
  | Fixed { deltas; ra; rb } -> { deltas; ra; rb; optimum }
  | Adaptive { backoff } ->
    { deltas = r.Bidir.Optimize.deltas;
      ra = r.Bidir.Optimize.ra *. (1. -. backoff);
      rb = r.Bidir.Optimize.rb *. (1. -. backoff);
      optimum;
    }

(* Success logic per protocol: the inner-bound expressions of Theorems
   2, 3 and 5 at the realised gains. [ra]/[rb] are bits per block use.
   See test_netsim for the consistency check against Bound.satisfied. *)
let decode_outcome protocol ~power ~(gains : Channel.Gains.t) ~deltas ~ra ~rb =
  let c g = Channel.Awgn.c (power *. g) in
  let g_ab = gains.Channel.Gains.g_ab
  and g_ar = gains.Channel.Gains.g_ar
  and g_br = gains.Channel.Gains.g_br in
  let d l = deltas.(l) in
  match protocol with
  | Bidir.Protocol.Dt ->
    (* no relay: each message crosses the direct link *)
    let b_gets_a = ra <= (d 0 *. c g_ab) +. 1e-9 in
    let a_gets_b = rb <= (d 1 *. c g_ab) +. 1e-9 in
    { relay_ok = false;
      b_gets_a;
      a_gets_b;
      failed_phase = (if not b_gets_a then Some 1 else if not a_gets_b then Some 2 else None);
    }
  | Bidir.Protocol.Naive ->
    (* four-hop routing: a->r, r->b, b->r, r->a, no coding. The bits
       travel per-hop (relay re-encodes), so [relay_ok] is reported
       false to route [move_bits] through the direct-packet comparison;
       [b_gets_a]/[a_gets_b] already encode the 2-hop success. *)
    let relay_a = ra <= (d 0 *. c g_ar) +. 1e-9 in
    let hop_rb = ra <= (d 1 *. c g_br) +. 1e-9 in
    let relay_b = rb <= (d 2 *. c g_br) +. 1e-9 in
    let hop_ra = rb <= (d 3 *. c g_ar) +. 1e-9 in
    { relay_ok = false;
      b_gets_a = relay_a && hop_rb;
      a_gets_b = relay_b && hop_ra;
      failed_phase =
        (if not relay_a then Some 1
         else if not hop_rb then Some 2
         else if not relay_b then Some 3
         else if not hop_ra then Some 4
         else None);
    }
  | Bidir.Protocol.Mabc ->
    let relay_ok =
      Phy.mac_success ~power ~gain1:g_ar ~gain2:g_br ~rate1:(ra /. Float.max (d 0) 1e-12)
        ~rate2:(rb /. Float.max (d 0) 1e-12)
      && d 0 > 0.
    in
    let bcast_b = ra <= (d 1 *. c g_br) +. 1e-9 in
    let bcast_a = rb <= (d 1 *. c g_ar) +. 1e-9 in
    { relay_ok;
      b_gets_a = relay_ok && bcast_b;
      a_gets_b = relay_ok && bcast_a;
      failed_phase =
        (if not relay_ok then Some 1
         else if not (bcast_a && bcast_b) then Some 2
         else None);
    }
  | Bidir.Protocol.Tdbc ->
    let relay_a = ra <= (d 0 *. c g_ar) +. 1e-9 in
    let relay_b = rb <= (d 1 *. c g_br) +. 1e-9 in
    let relay_ok = relay_a && relay_b in
    let b_gets_a =
      if relay_ok then
        Phy.combined_success
          ~parts:[ (d 0, c g_ab); (d 2, c g_br) ]
          ~rate:ra
      else ra <= (d 0 *. c g_ab) +. 1e-9
    in
    let a_gets_b =
      if relay_ok then
        Phy.combined_success
          ~parts:[ (d 1, c g_ab); (d 2, c g_ar) ]
          ~rate:rb
      else rb <= (d 1 *. c g_ab) +. 1e-9
    in
    { relay_ok;
      b_gets_a;
      a_gets_b;
      failed_phase =
        (if not relay_a then Some 1
         else if not relay_b then Some 2
         else if not (b_gets_a && a_gets_b) then Some 3
         else None);
    }
  | Bidir.Protocol.Hbc ->
    let relay_ok =
      ra <= ((d 0 +. d 2) *. c g_ar) +. 1e-9
      && rb <= ((d 1 +. d 2) *. c g_br) +. 1e-9
      && ra +. rb
         <= (d 0 *. c g_ar) +. (d 1 *. c g_br) +. (d 2 *. c (g_ar +. g_br))
            +. 1e-9
    in
    let b_gets_a =
      if relay_ok then
        Phy.combined_success ~parts:[ (d 0, c g_ab); (d 3, c g_br) ] ~rate:ra
      else ra <= (d 0 *. c g_ab) +. 1e-9
    in
    let a_gets_b =
      if relay_ok then
        Phy.combined_success ~parts:[ (d 1, c g_ab); (d 3, c g_ar) ] ~rate:rb
      else rb <= (d 1 *. c g_ab) +. 1e-9
    in
    { relay_ok;
      b_gets_a;
      a_gets_b;
      failed_phase =
        (if not relay_ok then Some 3
         else if not (b_gets_a && a_gets_b) then Some 4
         else None);
    }

(* One block's vectors: the two payloads, their CRC frames and the
   relay word. Each domain keeps one workspace and rewrites it block
   after block; a vector's buffer grows to the longest block it has
   carried and is kept, so a warm block allocates nothing on the major
   heap (payload-sized bytes skip the minor heap). *)
type workspace = {
  wa : Coding.Bitvec.t;
  wb : Coding.Bitvec.t;
  fa : Coding.Bitvec.t;
  fb : Coding.Bitvec.t;
  relay : Coding.Bitvec.t;
}

let workspace =
  Domain.DLS.new_key (fun () ->
      let v () = Coding.Bitvec.create 0 in
      { wa = v (); wb = v (); fa = v (); fb = v (); relay = v () })

(* One block's bit-level pipeline given its decode outcome. Returns the
   (delivered_a, delivered_b, bit_error_count) triple after CRC checks
   and payload comparison. The relay word is built at most once, and
   only when a direction decodes through it. *)
let move_bits rng ~outcome ~bits_a ~bits_b =
  let ws = Domain.DLS.get workspace in
  Coding.Bitvec.random_into rng ws.wa bits_a;
  Coding.Bitvec.random_into rng ws.wb bits_b;
  Coding.Crc.append_crc16_into ~dst:ws.fa ws.wa;
  Coding.Crc.append_crc16_into ~dst:ws.fb ws.wb;
  let bit_errors = ref 0 in
  let check ~own framed expected =
    match Coding.Xor_relay.check_framed ~own framed ~expected with
    | None -> false
    | Some ok ->
      if not ok then incr bit_errors;
      ok
  in
  (* the relay combined both clean frames (just sealed, so the combine
     succeeds); a terminal xors its own message back out *)
  let relayed =
    outcome.relay_ok
    && (outcome.b_gets_a || outcome.a_gets_b)
    && Coding.Xor_relay.combine_framed_into ~dst:ws.relay ws.fa ws.fb
  in
  let receive ~own framed expected =
    if relayed then check ~own ws.relay expected
    else check ~own:Coding.Bitvec.empty framed expected
  in
  let delivered_a =
    if outcome.b_gets_a then receive ~own:ws.wb ws.fa ws.wa
    else begin
      (* outage: b sees garbage; the CRC must catch it. a's frame is not
         read again, so it is damaged in place *)
      Packet.flip_bits rng ws.fa;
      ignore (check ~own:Coding.Bitvec.empty ws.fa ws.wa);
      false
    end
  in
  let delivered_b = outcome.a_gets_b && receive ~own:ws.wa ws.fb ws.wb in
  (delivered_a, delivered_b, !bit_errors)

let run cfg =
  validate cfg;
  let metrics = Metrics.create () in
  let engine = Engine.create () in
  let rng = Prob.Rng.create ~seed:cfg.seed in
  let n = cfg.block_symbols in
  let analytic_acc = ref 0. in
  let run_block index =
    let gains = Channel.Fading.draw cfg.fading in
    let sched = plan cfg gains in
    analytic_acc := !analytic_acc +. sched.optimum;
    let bits_a = int_of_float (sched.ra *. float_of_int n) in
    let bits_b = int_of_float (sched.rb *. float_of_int n) in
    (* effective (floored) rates actually carried by the payloads *)
    let ra_eff = float_of_int bits_a /. float_of_int n in
    let rb_eff = float_of_int bits_b /. float_of_int n in
    let outcome =
      decode_outcome cfg.protocol ~power:cfg.power ~gains ~deltas:sched.deltas
        ~ra:ra_eff ~rb:rb_eff
    in
    (match outcome.failed_phase with
    | Some phase -> Metrics.record_phase_outage metrics ~phase
    | None -> ());
    let delivered_a, delivered_b, errs =
      move_bits rng ~outcome ~bits_a ~bits_b
    in
    for _ = 1 to errs do
      Metrics.record_bit_error metrics
    done;
    Metrics.record_block metrics ~symbols:n ~bits_a ~bits_b ~delivered_a
      ~delivered_b;
    Log.debug (fun m ->
        m "block %d: ra=%.3f rb=%.3f delivered=(%b,%b)" index ra_eff rb_eff
          delivered_a delivered_b)
  in
  (* schedule every block on the virtual clock, one per [n] symbols *)
  for i = 0 to cfg.blocks - 1 do
    Engine.schedule_at engine
      ~time:(float_of_int (i * n))
      (fun () -> run_block i)
  done;
  Engine.run engine;
  { metrics;
    analytic_mean_sum_rate = !analytic_acc /. float_of_int cfg.blocks;
    elapsed_symbols = Engine.now engine +. float_of_int n;
  }

let default_config ?(blocks = 200) ?(block_symbols = 10_000) ?(seed = 42)
    ~protocol ~power_db ~gains () =
  { protocol;
    power = Numerics.Float_utils.db_to_lin power_db;
    fading = Channel.Fading.static gains;
    mode = Adaptive { backoff = 0. };
    block_symbols;
    blocks;
    seed;
  }
