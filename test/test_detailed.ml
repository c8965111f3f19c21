(* Tests for the fine-grained simulator: radio medium, node decode
   state, detailed runner (cross-validated against the block runner),
   and the ARQ layer. *)

let paper_gains = Channel.Gains.paper_fig4

(* ------------------------------------------------------------------ *)
(* Radio                                                               *)
(* ------------------------------------------------------------------ *)

let mk_radio () =
  let engine = Netsim.Engine.create () in
  let radio = Netsim.Radio.create engine ~power:10. ~gains:paper_gains in
  (engine, radio)

let dummy_packet src =
  Netsim.Packet.fresh ~src ~seq:0 (Coding.Bitvec.of_string "1010")

let tx src =
  { Netsim.Radio.tx_src = src;
    tx_packet = dummy_packet src;
    tx_rate = 1.;
  }

let test_radio_delivers_to_listeners () =
  let engine, radio = mk_radio () in
  let got = ref [] in
  List.iter
    (fun node ->
      Netsim.Radio.set_receiver radio node (fun r ->
          got := (node, r) :: !got))
    [ Netsim.Packet.A; Netsim.Packet.B; Netsim.Packet.R ];
  Netsim.Radio.phase radio ~start:0. ~duration:100.
    ~transmissions:[ tx Netsim.Packet.A ];
  Netsim.Engine.run engine;
  (* a transmitted: only b and r listen *)
  Alcotest.(check int) "two receptions" 2 (List.length !got);
  Alcotest.(check bool) "a heard nothing (half-duplex)" false
    (List.mem_assoc Netsim.Packet.A !got);
  let r_reception = List.assoc Netsim.Packet.R !got in
  Alcotest.(check int) "one source heard" 1
    (List.length r_reception.Netsim.Radio.heard);
  (* snr at the relay = P * G_ar *)
  (match r_reception.Netsim.Radio.heard with
  | [ h ] ->
    Alcotest.(check (float 1e-9)) "snr"
      (10. *. paper_gains.Channel.Gains.g_ar)
      h.Netsim.Radio.snr
  | _ -> Alcotest.fail "expected exactly one heard entry")

let test_radio_mac_superposition () =
  let engine, radio = mk_radio () in
  let seen = ref None in
  Netsim.Radio.set_receiver radio Netsim.Packet.R (fun r -> seen := Some r);
  Netsim.Radio.phase radio ~start:0. ~duration:50.
    ~transmissions:[ tx Netsim.Packet.A; tx Netsim.Packet.B ];
  Netsim.Engine.run engine;
  match !seen with
  | None -> Alcotest.fail "relay heard nothing"
  | Some r ->
    Alcotest.(check int) "two sources" 2 (List.length r.Netsim.Radio.heard);
    Alcotest.(check (float 1e-9)) "superposed snr"
      (10. *. (paper_gains.Channel.Gains.g_ar +. paper_gains.Channel.Gains.g_br))
      r.Netsim.Radio.total_snr

let test_radio_half_duplex_violation () =
  let engine, radio = mk_radio () in
  Netsim.Radio.phase radio ~start:0. ~duration:10.
    ~transmissions:[ tx Netsim.Packet.A; tx Netsim.Packet.A ];
  Alcotest.check_raises "double tx"
    (Failure "Radio: node transmitting twice in one phase (half-duplex)")
    (fun () -> Netsim.Engine.run engine)

let test_radio_overlap_violation () =
  let engine, radio = mk_radio () in
  Netsim.Radio.phase radio ~start:0. ~duration:10.
    ~transmissions:[ tx Netsim.Packet.A ];
  Netsim.Radio.phase radio ~start:5. ~duration:10.
    ~transmissions:[ tx Netsim.Packet.B ];
  Alcotest.check_raises "overlap"
    (Failure "Radio: phase scheduled while another is on the air") (fun () ->
      Netsim.Engine.run engine)

let test_radio_sequential_ok () =
  let engine, radio = mk_radio () in
  let count = ref 0 in
  Netsim.Radio.set_receiver radio Netsim.Packet.R (fun _ -> incr count);
  Netsim.Radio.phase radio ~start:0. ~duration:10.
    ~transmissions:[ tx Netsim.Packet.A ];
  Netsim.Radio.phase radio ~start:10. ~duration:10.
    ~transmissions:[ tx Netsim.Packet.B ];
  Netsim.Engine.run engine;
  Alcotest.(check int) "both phases heard" 2 !count;
  Alcotest.(check (float 1e-9)) "busy horizon" 20. (Netsim.Radio.busy_until radio)

(* ------------------------------------------------------------------ *)
(* Node                                                                *)
(* ------------------------------------------------------------------ *)

let reception ~listener ~duration ~heard ~total_snr =
  { Netsim.Radio.listener;
    phase_start = 0.;
    phase_duration = duration;
    heard;
    total_snr;
  }

let test_node_budget_accumulation () =
  let node = Netsim.Node.create Netsim.Packet.R ~block_symbols:1000 in
  let h snr =
    { Netsim.Radio.from = Netsim.Packet.A;
      packet = dummy_packet Netsim.Packet.A;
      rate = 1.;
      snr;
    }
  in
  (* two phases of 250 symbols each at SNR 3 (C = 2 bits/use):
     budget = 2 * 0.25 * 2 = 1 bit per block use *)
  Netsim.Node.observe node
    (reception ~listener:Netsim.Packet.R ~duration:250. ~heard:[ h 3. ]
       ~total_snr:3.);
  Netsim.Node.observe node
    (reception ~listener:Netsim.Packet.R ~duration:250. ~heard:[ h 3. ]
       ~total_snr:3.);
  Alcotest.(check (float 1e-9)) "budget" 1.
    (Netsim.Node.budget node Netsim.Packet.A);
  Alcotest.(check bool) "decodes at 1" true
    (Netsim.Node.can_decode node ~src:Netsim.Packet.A ~rate:1.);
  Alcotest.(check bool) "fails at 1.01" false
    (Netsim.Node.can_decode node ~src:Netsim.Packet.A ~rate:1.01);
  Netsim.Node.reset node;
  Alcotest.(check (float 1e-9)) "reset" 0.
    (Netsim.Node.budget node Netsim.Packet.A)

let test_node_joint_budget () =
  let node = Netsim.Node.create Netsim.Packet.R ~block_symbols:1000 in
  let h src snr =
    { Netsim.Radio.from = src; packet = dummy_packet src; rate = 1.; snr }
  in
  (* MAC phase: full block, snrs 3 and 3, superposed 6 *)
  Netsim.Node.observe node
    (reception ~listener:Netsim.Packet.R ~duration:1000.
       ~heard:[ h Netsim.Packet.A 3.; h Netsim.Packet.B 3. ]
       ~total_snr:6.);
  Alcotest.(check (float 1e-9)) "individual A" 2.
    (Netsim.Node.budget node Netsim.Packet.A);
  Alcotest.(check (float 1e-9)) "joint" (Numerics.Float_utils.log2 7.)
    (Netsim.Node.joint_budget node);
  Alcotest.(check bool) "pair inside pentagon" true
    (Netsim.Node.relay_can_decode_both node ~ra:1.4 ~rb:1.4);
  Alcotest.(check bool) "pair outside sum" false
    (Netsim.Node.relay_can_decode_both node ~ra:1.5 ~rb:1.5)

(* ------------------------------------------------------------------ *)
(* Detailed vs Runner cross-validation                                 *)
(* ------------------------------------------------------------------ *)

let test_detailed_matches_runner_static () =
  List.iter
    (fun protocol ->
      let cfg =
        Netsim.Runner.default_config ~protocol ~power_db:10.
          ~gains:paper_gains ~blocks:10 ~block_symbols:5_000 ()
      in
      let r1 = Netsim.Runner.run cfg in
      let r2 = Netsim.Detailed.run cfg in
      Alcotest.(check (float 1e-12))
        (Bidir.Protocol.name protocol ^ " same throughput")
        (Netsim.Metrics.throughput r1.Netsim.Runner.metrics)
        (Netsim.Metrics.throughput r2.Netsim.Runner.metrics);
      Alcotest.(check int)
        (Bidir.Protocol.name protocol ^ " zero errors")
        0
        (Netsim.Metrics.bit_errors r2.Netsim.Runner.metrics))
    Bidir.Protocol.all

let test_detailed_matches_runner_fading_fixed () =
  (* identical fading seeds -> block-identical outage decisions *)
  List.iter
    (fun protocol ->
      let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains in
      let opt = Bidir.Optimize.sum_rate protocol Bidir.Bound.Inner s in
      let mk () =
        { (Netsim.Runner.default_config ~protocol ~power_db:10.
             ~gains:paper_gains ~blocks:300 ~block_symbols:1_000 ())
          with
          Netsim.Runner.fading =
            Channel.Fading.create ~rng_seed:13 ~mean:paper_gains ();
          mode =
            Netsim.Runner.Fixed
              { deltas = opt.Bidir.Optimize.deltas;
                ra = opt.Bidir.Optimize.ra *. 0.5;
                rb = opt.Bidir.Optimize.rb *. 0.5;
              };
        }
      in
      let r1 = Netsim.Runner.run (mk ()) in
      let r2 = Netsim.Detailed.run (mk ()) in
      Alcotest.(check (float 1e-12))
        (Bidir.Protocol.name protocol ^ " same outage rate")
        (Netsim.Metrics.outage_rate r1.Netsim.Runner.metrics)
        (Netsim.Metrics.outage_rate r2.Netsim.Runner.metrics);
      Alcotest.(check int)
        (Bidir.Protocol.name protocol ^ " same delivered bits")
        (Netsim.Metrics.delivered_bits r1.Netsim.Runner.metrics)
        (Netsim.Metrics.delivered_bits r2.Netsim.Runner.metrics))
    Bidir.Protocol.all

let test_detailed_negative_duration () =
  (* an LP optimum can carry a phase duration of -1e-16 (HBC's MAC
     phase at 10 dB, solved cold, comes out at -6.75e-17): the event
     simulator clamps it to an empty phase, and agrees with the block
     runner *)
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains in
  let opt = Bidir.Optimize.sum_rate Bidir.Protocol.Hbc Bidir.Bound.Inner s in
  let deltas = Array.copy opt.Bidir.Optimize.deltas in
  deltas.(2) <- -6.75e-17;
  let cfg =
    { (Netsim.Runner.default_config ~protocol:Bidir.Protocol.Hbc ~power_db:10.
         ~gains:paper_gains ~blocks:20 ~block_symbols:1_000 ())
      with
      Netsim.Runner.mode =
        Netsim.Runner.Fixed
          { deltas; ra = opt.Bidir.Optimize.ra *. 0.5; rb = opt.Bidir.Optimize.rb *. 0.5 };
    }
  in
  let r1 = Netsim.Runner.run cfg in
  let r2 = Netsim.Detailed.run cfg in
  Alcotest.(check int) "same delivered bits"
    (Netsim.Metrics.delivered_bits r1.Netsim.Runner.metrics)
    (Netsim.Metrics.delivered_bits r2.Netsim.Runner.metrics);
  Alcotest.(check int) "zero errors" 0
    (Netsim.Metrics.bit_errors r2.Netsim.Runner.metrics)

let test_detailed_clock () =
  let cfg =
    Netsim.Runner.default_config ~protocol:Bidir.Protocol.Hbc ~power_db:5.
      ~gains:paper_gains ~blocks:4 ~block_symbols:1_000 ()
  in
  let r = Netsim.Detailed.run cfg in
  Alcotest.(check (float 1e-6)) "ends at blocks * n" 4_000.
    r.Netsim.Runner.elapsed_symbols

(* ------------------------------------------------------------------ *)
(* ARQ                                                                 *)
(* ------------------------------------------------------------------ *)

let arq_config ?(messages = 100) ?(max_retries = 4) ~backoff protocol =
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains in
  let opt = Bidir.Optimize.sum_rate protocol Bidir.Bound.Inner s in
  { Netsim.Arq.protocol;
    power = Numerics.Float_utils.db_to_lin 10.;
    fading = Channel.Fading.create ~rng_seed:21 ~mean:paper_gains ();
    deltas = opt.Bidir.Optimize.deltas;
    ra = opt.Bidir.Optimize.ra *. (1. -. backoff);
    rb = opt.Bidir.Optimize.rb *. (1. -. backoff);
    block_symbols = 1_000;
    messages;
    max_retries;
    seed = 5;
  }

let test_arq_static_no_retries () =
  (* static channel at the exact optimum: every pair lands first try *)
  let cfg =
    { (arq_config ~backoff:0. Bidir.Protocol.Tdbc) with
      Netsim.Arq.fading = Channel.Fading.static paper_gains;
    }
  in
  let r = Netsim.Arq.run cfg in
  Alcotest.(check int) "all delivered" 100 r.Netsim.Arq.delivered_pairs;
  Alcotest.(check int) "no drops" 0 r.Netsim.Arq.dropped_pairs;
  Alcotest.(check (float 1e-9)) "one attempt each" 1. r.Netsim.Arq.mean_attempts;
  Alcotest.(check int) "blocks = messages" 100 r.Netsim.Arq.total_blocks

let test_arq_fading_recovers () =
  let aggressive = Netsim.Arq.run (arq_config ~backoff:0.2 Bidir.Protocol.Mabc) in
  Alcotest.(check bool) "some retries happened" true
    (aggressive.Netsim.Arq.total_blocks > 100);
  Alcotest.(check bool) "most pairs eventually delivered" true
    (aggressive.Netsim.Arq.delivered_pairs > 60);
  Alcotest.(check bool) "attempts tracked" true
    (aggressive.Netsim.Arq.mean_attempts >= 1.)

let test_arq_backoff_tradeoff () =
  (* backing off the rate reduces retries *)
  let r_low = Netsim.Arq.run (arq_config ~backoff:0.7 Bidir.Protocol.Tdbc) in
  let r_high = Netsim.Arq.run (arq_config ~backoff:0.1 Bidir.Protocol.Tdbc) in
  Alcotest.(check bool) "lower rate -> fewer attempts" true
    (r_low.Netsim.Arq.mean_attempts <= r_high.Netsim.Arq.mean_attempts)

let test_arq_validation () =
  let cfg = arq_config ~backoff:0. Bidir.Protocol.Tdbc in
  Alcotest.check_raises "bad arity"
    (Invalid_argument "Arq: schedule arity does not match the protocol")
    (fun () ->
      ignore (Netsim.Arq.run { cfg with Netsim.Arq.deltas = [| 1. |] }));
  Alcotest.check_raises "no messages"
    (Invalid_argument "Arq: messages must be positive") (fun () ->
      ignore (Netsim.Arq.run { cfg with Netsim.Arq.messages = 0 }))

let prop_arq_goodput_bounded =
  QCheck.Test.make ~count:15 ~name:"ARQ goodput <= offered rate"
    QCheck.(pair (float_range 0. 0.8) (int_range 0 3))
    (fun (backoff, retries) ->
      let cfg =
        { (arq_config ~messages:40 ~max_retries:retries ~backoff
             Bidir.Protocol.Tdbc)
          with Netsim.Arq.seed = retries + 1;
        }
      in
      let r = Netsim.Arq.run cfg in
      r.Netsim.Arq.goodput <= cfg.Netsim.Arq.ra +. cfg.Netsim.Arq.rb +. 1e-9
      && r.Netsim.Arq.delivered_pairs + r.Netsim.Arq.dropped_pairs
         = cfg.Netsim.Arq.messages)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_arq_goodput_bounded ]

let suites =
  [ ( "netsim.radio",
      [ Alcotest.test_case "delivers to listeners" `Quick
          test_radio_delivers_to_listeners;
        Alcotest.test_case "MAC superposition" `Quick test_radio_mac_superposition;
        Alcotest.test_case "half-duplex violation" `Quick
          test_radio_half_duplex_violation;
        Alcotest.test_case "overlap violation" `Quick test_radio_overlap_violation;
        Alcotest.test_case "sequential phases" `Quick test_radio_sequential_ok;
      ] );
    ( "netsim.node",
      [ Alcotest.test_case "budget accumulation" `Quick
          test_node_budget_accumulation;
        Alcotest.test_case "joint budget" `Quick test_node_joint_budget;
      ] );
    ( "netsim.detailed",
      [ Alcotest.test_case "matches runner (static)" `Quick
          test_detailed_matches_runner_static;
        Alcotest.test_case "matches runner (fading, fixed)" `Quick
          test_detailed_matches_runner_fading_fixed;
        Alcotest.test_case "negative round-off duration" `Quick
          test_detailed_negative_duration;
        Alcotest.test_case "virtual clock" `Quick test_detailed_clock;
      ] );
    ( "netsim.arq",
      [ Alcotest.test_case "static: no retries" `Quick test_arq_static_no_retries;
        Alcotest.test_case "fading: recovers" `Quick test_arq_fading_recovers;
        Alcotest.test_case "backoff tradeoff" `Quick test_arq_backoff_tradeoff;
        Alcotest.test_case "validation" `Quick test_arq_validation;
      ] );
    ("netsim.arq.properties", qcheck_cases);
  ]

(* ------------------------------------------------------------------ *)
(* Traffic / queueing                                                  *)
(* ------------------------------------------------------------------ *)

let traffic_config ?(load = 0.5) protocol =
  { Netsim.Traffic.protocol;
    power = Numerics.Float_utils.db_to_lin 10.;
    gains = paper_gains;
    load;
    block_symbols = 1_000;
    blocks = 1_500;
    seed = 9;
  }

let test_traffic_light_load () =
  let r = Netsim.Traffic.run (traffic_config ~load:0.3 Bidir.Protocol.Tdbc) in
  (* light load: most arrivals served in the next block *)
  Alcotest.(check bool) "delay near one block" true
    (r.Netsim.Traffic.mean_delay_blocks < 1.1);
  Alcotest.(check bool) "nearly everything carried" true
    (float_of_int r.Netsim.Traffic.carried_bits
     /. float_of_int (max 1 r.Netsim.Traffic.offered_bits)
     > 0.99);
  Alcotest.(check bool) "utilisation ~ load" true
    (abs_float (r.Netsim.Traffic.utilisation -. 0.3) < 0.05)

let test_traffic_delay_grows_with_load () =
  let d load =
    (Netsim.Traffic.run (traffic_config ~load Bidir.Protocol.Mabc))
      .Netsim.Traffic.mean_delay_blocks
  in
  let d50 = d 0.5 and d95 = d 0.95 in
  Alcotest.(check bool) "delay grows" true (d95 > d50 +. 0.5);
  Alcotest.(check bool) "p95 >= mean" true
    (let r = Netsim.Traffic.run (traffic_config ~load:0.9 Bidir.Protocol.Mabc) in
     r.Netsim.Traffic.p95_delay_blocks
     >= r.Netsim.Traffic.mean_delay_blocks -. 1e-9)

let test_traffic_overload_queues () =
  let r = Netsim.Traffic.run (traffic_config ~load:1.4 Bidir.Protocol.Dt) in
  (* 40% overload: a macroscopic backlog remains *)
  Alcotest.(check bool) "backlog" true
    (r.Netsim.Traffic.offered_bits - r.Netsim.Traffic.carried_bits
     > r.Netsim.Traffic.offered_bits / 10);
  Alcotest.(check bool) "queue high-water positive" true
    (r.Netsim.Traffic.max_queue_bits > 0)

let test_traffic_validation () =
  Alcotest.check_raises "bad load"
    (Invalid_argument "Traffic.run: load must be positive") (fun () ->
      ignore (Netsim.Traffic.run (traffic_config ~load:0. Bidir.Protocol.Dt)))

(* Exact hand-computed trace through the batch queue, covering partial
   service, multi-batch completion and the front/back rotation. *)
let test_batch_queue_hand_trace () =
  let q = Netsim.Batch_queue.create () in
  Netsim.Batch_queue.enqueue q ~arrival:0. ~bits:30;
  Netsim.Batch_queue.enqueue q ~arrival:0. ~bits:20;
  Alcotest.(check int) "50 bits queued" 50 (Netsim.Batch_queue.bits q);
  Alcotest.(check int) "2 batches" 2 (Netsim.Batch_queue.length q);
  (* budget 40 at t=1: first batch (30) completes with sojourn 1, the
     second is served 10 of 20 bits — no completion *)
  Alcotest.(check (list (float 1e-12))) "first drain" [ 1. ]
    (Netsim.Batch_queue.drain q ~budget:40 ~now:1.);
  Alcotest.(check int) "10 bits remain" 10 (Netsim.Batch_queue.bits q);
  Netsim.Batch_queue.enqueue q ~arrival:1. ~bits:5;
  (* budget 40 at t=2: the partially-served batch (arrival 0, sojourn 2)
     then the new one (arrival 1, sojourn 1) both complete; the most
     recent completion is listed first *)
  Alcotest.(check (list (float 1e-12))) "second drain" [ 1.; 2. ]
    (Netsim.Batch_queue.drain q ~budget:40 ~now:2.);
  Alcotest.(check bool) "empty" true (Netsim.Batch_queue.is_empty q);
  Alcotest.(check (list (float 1e-12))) "drain on empty" []
    (Netsim.Batch_queue.drain q ~budget:10 ~now:3.);
  (* zero budget performs no partial service *)
  Netsim.Batch_queue.enqueue q ~arrival:3. ~bits:7;
  Alcotest.(check (list (float 1e-12))) "zero budget" []
    (Netsim.Batch_queue.drain q ~budget:0 ~now:4.);
  Alcotest.(check int) "untouched" 7 (Netsim.Batch_queue.bits q)

(* The two-list queue must be observationally identical to the original
   list-append FIFO: replay one random op sequence through both. *)
let test_batch_queue_matches_list_reference () =
  (* the seed implementation, verbatim *)
  let module Ref = struct
    type t = { mutable batches : (float * int) list; mutable bits : int }

    let create () = { batches = []; bits = 0 }

    let enqueue q ~arrival ~bits =
      if bits > 0 then begin
        q.batches <- q.batches @ [ (arrival, bits) ];
        q.bits <- q.bits + bits
      end

    let drain q ~budget ~now =
      let rec go budget acc =
        match q.batches with
        | [] -> acc
        | (arrival, bits) :: rest ->
          if bits <= budget then begin
            q.batches <- rest;
            q.bits <- q.bits - bits;
            go (budget - bits) ((now -. arrival) :: acc)
          end
          else begin
            q.batches <- (arrival, bits - budget) :: rest;
            q.bits <- q.bits - budget;
            acc
          end
      in
      go budget []
  end in
  let rng = Prob.Rng.create ~seed:31 in
  let q = Netsim.Batch_queue.create () and r = Ref.create () in
  for block = 0 to 499 do
    let now = float_of_int block in
    for _ = 1 to Prob.Rng.int rng 6 do
      let bits = Prob.Rng.int rng 120 in
      Netsim.Batch_queue.enqueue q ~arrival:now ~bits;
      Ref.enqueue r ~arrival:now ~bits
    done;
    let budget = Prob.Rng.int rng 260 in
    let dq = Netsim.Batch_queue.drain q ~budget ~now:(now +. 1.) in
    let dr = Ref.drain r ~budget ~now:(now +. 1.) in
    Alcotest.(check (list (float 0.)))
      (Printf.sprintf "block %d completions" block)
      dr dq;
    Alcotest.(check int)
      (Printf.sprintf "block %d bits" block)
      r.Ref.bits (Netsim.Batch_queue.bits q)
  done

(* Overload regression: at load 0.95 over 20k blocks the old O(n)
   list-append enqueue made this run quadratic; with the two-list queue
   it completes well inside the alcotest budget. *)
let test_traffic_overload_horizon_completes () =
  let r =
    Netsim.Traffic.run
      { (traffic_config ~load:0.95 Bidir.Protocol.Tdbc) with
        Netsim.Traffic.blocks = 20_000;
      }
  in
  Alcotest.(check bool) "something carried" true
    (r.Netsim.Traffic.carried_bits > 0)

(* The reported peak backlog must be the pre-service maximum. Under
   sustained overload the backlog at the last block, just after its
   arrivals, is (still-queued bits) + (the full service both directions
   consume in that block) — so the high-water mark is at least that.
   The old post-drain sampling reported exactly the still-queued bits
   and fails this bound. *)
let test_traffic_peak_sampled_before_service () =
  let cfg = { (traffic_config ~load:1.5 Bidir.Protocol.Tdbc) with
              Netsim.Traffic.blocks = 2_000 } in
  let r = Netsim.Traffic.run cfg in
  (* recompute the per-block service exactly as [run] derives it *)
  let s =
    Bidir.Gaussian.scenario_lin ~power:cfg.Netsim.Traffic.power
      ~gains:cfg.Netsim.Traffic.gains
  in
  let opt =
    Bidir.Optimize.sum_rate cfg.Netsim.Traffic.protocol Bidir.Bound.Inner s
  in
  let n = float_of_int cfg.Netsim.Traffic.block_symbols in
  let serve_a = int_of_float (opt.Bidir.Optimize.ra *. n) in
  let serve_b = int_of_float (opt.Bidir.Optimize.rb *. n) in
  let backlog = r.Netsim.Traffic.offered_bits - r.Netsim.Traffic.carried_bits in
  Alcotest.(check bool) "peak >= final backlog + last block's service" true
    (r.Netsim.Traffic.max_queue_bits >= backlog + serve_a + serve_b)

let test_traffic_comparison_table () =
  let t =
    Netsim.Traffic.comparison_table ~offered:[ 2.5; 4.2 ] ~blocks:400
      ~power_db:10. ~gains:paper_gains ()
  in
  Alcotest.(check int) "two rows" 2 (List.length t.Bidir.Figures.rows);
  (* at 4.2 bits/use only TDBC and HBC survive at these gains *)
  match t.Bidir.Figures.rows with
  | [ _; [ _; dt; naive; mabc; tdbc; hbc ] ] ->
    Alcotest.(check string) "DT overloaded" "overload" dt;
    Alcotest.(check string) "NAIVE overloaded" "overload" naive;
    Alcotest.(check string) "MABC overloaded" "overload" mabc;
    Alcotest.(check bool) "TDBC carries it" true (tdbc <> "overload");
    Alcotest.(check bool) "HBC carries it" true (hbc <> "overload")
  | _ -> Alcotest.fail "unexpected table shape"

let traffic_cases =
  [ Alcotest.test_case "light load" `Quick test_traffic_light_load;
    Alcotest.test_case "delay grows with load" `Quick test_traffic_delay_grows_with_load;
    Alcotest.test_case "overload queues" `Quick test_traffic_overload_queues;
    Alcotest.test_case "validation" `Quick test_traffic_validation;
    Alcotest.test_case "comparison table" `Quick test_traffic_comparison_table;
    Alcotest.test_case "batch queue hand trace" `Quick test_batch_queue_hand_trace;
    Alcotest.test_case "batch queue = list reference" `Quick
      test_batch_queue_matches_list_reference;
    Alcotest.test_case "20k-block overload completes" `Quick
      test_traffic_overload_horizon_completes;
    Alcotest.test_case "peak sampled before service" `Quick
      test_traffic_peak_sampled_before_service;
  ]

let suites = suites @ [ ("netsim.traffic", traffic_cases) ]
