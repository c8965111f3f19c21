(* Tests for the discrete-event simulator. *)

let paper_gains = Channel.Gains.paper_fig4

(* ------------------------------------------------------------------ *)
(* Event queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_queue_order () =
  let q = Netsim.Event_queue.create () in
  Netsim.Event_queue.push q ~time:3. "c";
  Netsim.Event_queue.push q ~time:1. "a";
  Netsim.Event_queue.push q ~time:2. "b";
  let drain () =
    let rec loop acc =
      match Netsim.Event_queue.pop q with
      | None -> List.rev acc
      | Some (_, x) -> loop (x :: acc)
    in
    loop []
  in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (drain ())

let test_queue_fifo_ties () =
  let q = Netsim.Event_queue.create () in
  for i = 0 to 9 do
    Netsim.Event_queue.push q ~time:5. i
  done;
  let rec drain acc =
    match Netsim.Event_queue.pop q with
    | None -> List.rev acc
    | Some (_, x) -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "insertion order on ties"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (drain [])

let test_queue_interleaved () =
  let q = Netsim.Event_queue.create () in
  let rng = Prob.Rng.create ~seed:1 in
  let times = Array.init 500 (fun _ -> Prob.Rng.float rng) in
  Array.iter (fun t -> Netsim.Event_queue.push q ~time:t t) times;
  let rec drain last n =
    match Netsim.Event_queue.pop q with
    | None -> n
    | Some (t, _) ->
      Alcotest.(check bool) "non-decreasing" true (t >= last);
      drain t (n + 1)
  in
  Alcotest.(check int) "all drained" 500 (drain neg_infinity 0)

(* A popped payload must be collectable even while the queue lives on:
   the heap array retains entry records in vacated slots (and [grow]
   duplicates a filler entry), so [pop] has to clear the payload field.
   Watch one payload through a weak pointer and force a full GC. *)
let test_queue_pop_releases_payload () =
  let q = Netsim.Event_queue.create () in
  let w = Weak.create 1 in
  (* boxed payload allocated in a helper so the test frame holds no
     strong reference after the call *)
  let push_tracked () =
    let payload = ref 42 in
    Weak.set w 0 (Some payload);
    Netsim.Event_queue.push q ~time:1. payload
  in
  push_tracked ();
  (* keep the queue non-trivial: later events stay pending, forcing the
     popped entry's old slots to stick around inside the live heap *)
  for i = 2 to 9 do
    Netsim.Event_queue.push q ~time:(float_of_int i) (ref i)
  done;
  (* pop in its own frame so no stack slot of this function keeps the
     payload reachable when the GC runs below *)
  let pop_and_check () =
    match Netsim.Event_queue.pop q with
    | Some (t, p) ->
      Alcotest.(check (float 0.)) "popped first" 1. t;
      Alcotest.(check int) "payload intact" 42 !p
    | None -> Alcotest.fail "queue was non-empty"
  in
  pop_and_check ();
  Alcotest.(check int) "rest still queued" 8 (Netsim.Event_queue.size q);
  Gc.full_major ();
  Alcotest.(check bool) "popped payload collected (not pinned by queue)"
    true
    (Weak.get w 0 = None);
  (* the queue still works after the clear *)
  match Netsim.Event_queue.pop q with
  | Some (t, _) -> Alcotest.(check (float 0.)) "next event" 2. t
  | None -> Alcotest.fail "remaining events lost"

let test_queue_size_and_nan () =
  let q = Netsim.Event_queue.create () in
  Alcotest.(check bool) "empty" true (Netsim.Event_queue.is_empty q);
  Netsim.Event_queue.push q ~time:1. ();
  Alcotest.(check int) "size" 1 (Netsim.Event_queue.size q);
  Alcotest.check_raises "nan" (Invalid_argument "Event_queue.push: NaN time")
    (fun () -> Netsim.Event_queue.push q ~time:Float.nan ())

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_clock () =
  let e = Netsim.Engine.create () in
  let trace = ref [] in
  Netsim.Engine.schedule_at e ~time:2. (fun () ->
      trace := ("ev2", Netsim.Engine.now e) :: !trace);
  Netsim.Engine.schedule_at e ~time:1. (fun () ->
      trace := ("ev1", Netsim.Engine.now e) :: !trace;
      (* handlers may schedule more events *)
      Netsim.Engine.schedule_after e ~delay:0.5 (fun () ->
          trace := ("ev1.5", Netsim.Engine.now e) :: !trace));
  Netsim.Engine.run e;
  Alcotest.(check (list string)) "order" [ "ev1"; "ev1.5"; "ev2" ]
    (List.rev_map fst !trace);
  Alcotest.(check (float 1e-12)) "final clock" 2. (Netsim.Engine.now e)

let test_engine_until () =
  let e = Netsim.Engine.create () in
  let fired = ref 0 in
  List.iter
    (fun t -> Netsim.Engine.schedule_at e ~time:t (fun () -> incr fired))
    [ 1.; 2.; 3.; 4. ];
  Netsim.Engine.run ~until:2.5 e;
  Alcotest.(check int) "two fired" 2 !fired;
  Alcotest.(check int) "two pending" 2 (Netsim.Engine.pending e);
  Netsim.Engine.run e;
  Alcotest.(check int) "all fired" 4 !fired

let test_engine_past_rejected () =
  let e = Netsim.Engine.create () in
  Netsim.Engine.schedule_at e ~time:5. (fun () ->
      Alcotest.check_raises "past"
        (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
          Netsim.Engine.schedule_at e ~time:1. (fun () -> ())));
  Netsim.Engine.run e

(* ------------------------------------------------------------------ *)
(* Phy                                                                 *)
(* ------------------------------------------------------------------ *)

let test_phy_p2p () =
  (* C(1 * 3) = 2 bits *)
  Alcotest.(check bool) "under" true (Netsim.Phy.p2p_success ~power:1. ~gain:3. ~rate:1.9);
  Alcotest.(check bool) "at" true (Netsim.Phy.p2p_success ~power:1. ~gain:3. ~rate:2.);
  Alcotest.(check bool) "over" false (Netsim.Phy.p2p_success ~power:1. ~gain:3. ~rate:2.1);
  Alcotest.(check bool) "zero rate always ok" true
    (Netsim.Phy.p2p_success ~power:0. ~gain:0. ~rate:0.)

let test_phy_mac_pentagon () =
  (* gains 3 and 3 at power 1: individual 2 bits, sum C(6) = 2.807 *)
  let ok r1 r2 = Netsim.Phy.mac_success ~power:1. ~gain1:3. ~gain2:3. ~rate1:r1 ~rate2:r2 in
  Alcotest.(check bool) "corner" true (ok 2. 0.8);
  Alcotest.(check bool) "sum violated" false (ok 1.5 1.5);
  Alcotest.(check bool) "individual violated" false (ok 2.1 0.1);
  Alcotest.(check bool) "inside" true (ok 1.4 1.4)

let test_phy_combined () =
  Alcotest.(check bool) "accumulates" true
    (Netsim.Phy.combined_success ~parts:[ (0.5, 1.); (0.25, 2.) ] ~rate:1.);
  Alcotest.(check bool) "insufficient" false
    (Netsim.Phy.combined_success ~parts:[ (0.5, 1.); (0.25, 2.) ] ~rate:1.01)

(* ------------------------------------------------------------------ *)
(* Packet                                                              *)
(* ------------------------------------------------------------------ *)

let test_packet_round_trip () =
  let rng = Prob.Rng.create ~seed:3 in
  let payload = Coding.Bitvec.random rng 120 in
  let pkt = Netsim.Packet.fresh ~src:Netsim.Packet.A ~seq:0 payload in
  Alcotest.(check int) "payload bits" 120 (Netsim.Packet.payload_bits pkt);
  match Netsim.Packet.verify pkt with
  | Some w -> Alcotest.(check bool) "clean" true (Coding.Bitvec.equal w payload)
  | None -> Alcotest.fail "clean packet failed CRC"

let test_packet_corruption_detected () =
  let rng = Prob.Rng.create ~seed:4 in
  for seq = 0 to 30 do
    let payload = Coding.Bitvec.random rng 80 in
    let pkt = Netsim.Packet.fresh ~src:Netsim.Packet.B ~seq payload in
    match Netsim.Packet.verify (Netsim.Packet.corrupt rng pkt) with
    | Some w ->
      (* CRC collision is possible but must not silently change bits *)
      Alcotest.(check bool) "collision preserves payload" true
        (Coding.Bitvec.equal w payload)
    | None -> ()
  done

let test_packet_xor () =
  let rng = Prob.Rng.create ~seed:5 in
  let wa = Coding.Bitvec.random rng 64 and wb = Coding.Bitvec.random rng 64 in
  let pa = Netsim.Packet.fresh ~src:Netsim.Packet.A ~seq:1 wa in
  let pb = Netsim.Packet.fresh ~src:Netsim.Packet.B ~seq:1 wb in
  let pr = Netsim.Packet.xor_payloads pa pb ~src:Netsim.Packet.R ~seq:1 in
  match Netsim.Packet.verify pr with
  | None -> Alcotest.fail "relay packet failed CRC"
  | Some wr ->
    Alcotest.(check bool) "xor correct" true
      (Coding.Bitvec.equal wr (Coding.Bitvec.xor wa wb))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_accounting () =
  let m = Netsim.Metrics.create () in
  Netsim.Metrics.record_block m ~symbols:1000 ~bits_a:500 ~bits_b:300
    ~delivered_a:true ~delivered_b:false;
  Netsim.Metrics.record_block m ~symbols:1000 ~bits_a:500 ~bits_b:300
    ~delivered_a:true ~delivered_b:true;
  Alcotest.(check int) "blocks" 2 (Netsim.Metrics.blocks m);
  Alcotest.(check int) "delivered" 1300 (Netsim.Metrics.delivered_bits m);
  Alcotest.(check int) "offered" 1600 (Netsim.Metrics.offered_bits m);
  Alcotest.(check (float 1e-9)) "throughput" 0.65 (Netsim.Metrics.throughput m);
  Alcotest.(check (float 1e-9)) "outage rate" 0.25 (Netsim.Metrics.outage_rate m);
  Netsim.Metrics.record_phase_outage m ~phase:2;
  Netsim.Metrics.record_phase_outage m ~phase:2;
  Alcotest.(check (list (pair int int))) "phase outages" [ (2, 2) ]
    (Netsim.Metrics.phase_outages m)

(* ------------------------------------------------------------------ *)
(* Runner: the headline verification                                   *)
(* ------------------------------------------------------------------ *)

let run_static protocol power_db =
  Netsim.Runner.run
    (Netsim.Runner.default_config ~protocol ~power_db ~gains:paper_gains
       ~blocks:20 ~block_symbols:20_000 ())

let test_adaptive_matches_analytic () =
  (* static channel + per-block optimal schedule: measured throughput
     equals the analytic optimal sum rate up to integer-bit flooring *)
  List.iter
    (fun protocol ->
      let r = run_static protocol 10. in
      let measured = Netsim.Metrics.throughput r.Netsim.Runner.metrics in
      let analytic = r.Netsim.Runner.analytic_mean_sum_rate in
      Alcotest.(check bool)
        (Bidir.Protocol.name protocol ^ " throughput ~= analytic")
        true
        (abs_float (measured -. analytic) < 2e-4);
      Alcotest.(check int)
        (Bidir.Protocol.name protocol ^ " zero bit errors")
        0
        (Netsim.Metrics.bit_errors r.Netsim.Runner.metrics);
      Alcotest.(check (float 1e-9))
        (Bidir.Protocol.name protocol ^ " zero outage")
        0.
        (Netsim.Metrics.outage_rate r.Netsim.Runner.metrics))
    Bidir.Protocol.all

let test_simulated_ordering_matches_paper () =
  (* the protocol ordering survives the trip through the simulator *)
  let thr p power_db =
    Netsim.Metrics.throughput (run_static p power_db).Netsim.Runner.metrics
  in
  Alcotest.(check bool) "low SNR: MABC > TDBC" true
    (thr Bidir.Protocol.Mabc 0. > thr Bidir.Protocol.Tdbc 0.);
  Alcotest.(check bool) "high SNR: TDBC > MABC" true
    (thr Bidir.Protocol.Tdbc 10. > thr Bidir.Protocol.Mabc 10.);
  Alcotest.(check bool) "HBC >= MABC at 0dB" true
    (thr Bidir.Protocol.Hbc 0. >= thr Bidir.Protocol.Mabc 0. -. 1e-4)

let test_decode_outcome_consistent_with_bounds () =
  (* adaptive zero-backoff schedules must be decodable: the simulator's
     success logic agrees with the inner-bound feasibility *)
  let gains = paper_gains in
  List.iter
    (fun protocol ->
      let r =
        Netsim.Runner.run
          (Netsim.Runner.default_config ~protocol ~power_db:5. ~gains
             ~blocks:10 ~block_symbols:5_000 ())
      in
      Alcotest.(check (float 1e-9)) "no outage" 0.
        (Netsim.Metrics.outage_rate r.Netsim.Runner.metrics))
    Bidir.Protocol.all

(* DT has no relay: its messages never take the XOR relay path, at any
   gains, schedule or rates, whether or not they decode. *)
let test_dt_routes_directly () =
  let rng = Prob.Rng.create ~seed:41 in
  let decoded = ref 0 in
  for _ = 1 to 200 do
    let g () = 0.01 +. (10. *. Prob.Rng.float rng) in
    let gains = Channel.Gains.make ~g_ab:(g ()) ~g_ar:(g ()) ~g_br:(g ()) in
    let d0 = Prob.Rng.float rng in
    let o =
      Netsim.Runner.decode_outcome Bidir.Protocol.Dt ~power:10. ~gains
        ~deltas:[| d0; 1. -. d0 |] ~ra:(2. *. Prob.Rng.float rng)
        ~rb:(2. *. Prob.Rng.float rng)
    in
    Alcotest.(check bool) "DT relay_ok" false o.Netsim.Runner.relay_ok;
    if o.Netsim.Runner.b_gets_a && o.Netsim.Runner.a_gets_b then incr decoded
  done;
  Alcotest.(check bool) "some blocks decode" true (!decoded > 0)

(* A warm block keeps off the major heap: its payloads, frames and relay
   word live in the domain's reused workspace (the parent layout spent
   ~1,500 major words a block on them). After one warm-up cycle, 100
   one-block runs cycling the five protocols may add at most 64 major
   words a block. [Gc.counters] counts this domain's major allocations
   as they happen; [Gc.quick_stat]'s figure moves only at a major
   slice. *)
let test_warm_block_major_alloc () =
  let protocols = Array.of_list Bidir.Protocol.all in
  let run i =
    ignore
      (Sys.opaque_identity
         (Netsim.Runner.run
            (Netsim.Runner.default_config ~blocks:1 ~seed:i
               ~protocol:protocols.(i mod Array.length protocols)
               ~power_db:10. ~gains:paper_gains ())))
  in
  Array.iteri (fun i _ -> run i) protocols;
  let major () = let _, _, m = Gc.counters () in m in
  let m0 = major () in
  for i = 0 to 99 do
    run i
  done;
  let per_block = (major () -. m0) /. 100. in
  if per_block > 64. then
    Alcotest.failf "a warm block allocated %.1f major words" per_block

let test_backoff_under_fading_reduces_outage () =
  let fading seed = Channel.Fading.create ~rng_seed:seed ~mean:paper_gains () in
  let base =
    Netsim.Runner.default_config ~protocol:Bidir.Protocol.Mabc ~power_db:10.
      ~gains:paper_gains ~blocks:200 ~block_symbols:1_000 ()
  in
  (* adaptive with full CSI never misses, even under fading *)
  let adaptive =
    Netsim.Runner.run { base with Netsim.Runner.fading = fading 7 }
  in
  Alcotest.(check (float 1e-9)) "adaptive: no outage" 0.
    (Netsim.Metrics.outage_rate adaptive.Netsim.Runner.metrics);
  (* a fixed mean-gain schedule misses often; it delivers less *)
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains in
  let opt = Bidir.Optimize.sum_rate Bidir.Protocol.Mabc Bidir.Bound.Inner s in
  let fixed =
    Netsim.Runner.run
      { base with
        Netsim.Runner.fading = fading 7;
        mode =
          Netsim.Runner.Fixed
            { deltas = opt.Bidir.Optimize.deltas;
              ra = opt.Bidir.Optimize.ra;
              rb = opt.Bidir.Optimize.rb;
            };
      }
  in
  Alcotest.(check bool) "fixed schedule suffers outage" true
    (Netsim.Metrics.outage_rate fixed.Netsim.Runner.metrics > 0.2);
  Alcotest.(check bool) "adaptive delivers more" true
    (Netsim.Metrics.throughput adaptive.Netsim.Runner.metrics
     > Netsim.Metrics.throughput fixed.Netsim.Runner.metrics)

let test_runner_determinism () =
  let run () =
    Netsim.Metrics.throughput
      (Netsim.Runner.run
         (Netsim.Runner.default_config ~protocol:Bidir.Protocol.Tdbc
            ~power_db:10. ~gains:paper_gains ~blocks:10 ~block_symbols:1_000 ()))
        .Netsim.Runner.metrics
  in
  Alcotest.(check (float 0.)) "identical reruns" (run ()) (run ())

(* Seeded results pinned to literal values, so that a change to the bit
   pipeline shows. Rayleigh fading with a fixed schedule makes outages,
   so [Packet.corrupt] and the CRC reject path run too. *)
let fingerprint m =
  Printf.sprintf "delivered=%d offered=%d errors=%d outages=[%s] throughput=%h"
    (Netsim.Metrics.delivered_bits m) (Netsim.Metrics.offered_bits m)
    (Netsim.Metrics.bit_errors m)
    (String.concat ";"
       (List.map (fun (p, c) -> Printf.sprintf "%d:%d" p c)
          (Netsim.Metrics.phase_outages m)))
    (Netsim.Metrics.throughput m)

let faded_fixed protocol =
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains in
  let opt = Bidir.Optimize.sum_rate protocol Bidir.Bound.Inner s in
  { (Netsim.Runner.default_config ~protocol ~power_db:10. ~gains:paper_gains
       ~blocks:60 ~block_symbols:1_000 ~seed:7 ())
    with
    Netsim.Runner.fading = Channel.Fading.create ~rng_seed:7 ~mean:paper_gains ();
    mode =
      Netsim.Runner.Fixed
        { deltas = opt.Bidir.Optimize.deltas;
          ra = opt.Bidir.Optimize.ra;
          rb = opt.Bidir.Optimize.rb;
        };
  }

let test_runner_pinned () =
  List.iter2
    (fun p expected ->
      Alcotest.(check string) (Bidir.Protocol.name p) expected
        (fingerprint (Netsim.Runner.run (faded_fixed p)).Netsim.Runner.metrics))
    Bidir.Protocol.all
    [ "delivered=72639 offered=207540 errors=0 outages=[1:39] throughput=0x1.35ed288ce703bp+0";
      "delivered=26660 offered=159960 errors=0 outages=[1:36;2:14] throughput=0x1.c6ff513cc1e0ap-2";
      "delivered=65747 offered=239520 errors=0 outages=[1:37;2:13] throughput=0x1.188541ac2b25p+0";
      "delivered=23322 offered=270600 errors=0 outages=[1:36;2:14;3:7] throughput=0x1.8e075f6fd21ffp-2";
      "delivered=23322 offered=270600 errors=0 outages=[3:50;4:7] throughput=0x1.8e075f6fd21ffp-2";
    ]

let test_detailed_pinned () =
  let adaptive =
    { (Netsim.Runner.default_config ~protocol:Bidir.Protocol.Tdbc ~power_db:10.
         ~gains:paper_gains ~blocks:30 ~block_symbols:1_000 ~seed:11 ())
      with
      Netsim.Runner.fading = Channel.Fading.create ~rng_seed:11 ~mean:paper_gains ();
    }
  in
  Alcotest.(check string) "TDBC, fading, adaptive"
    "delivered=99286 offered=99286 errors=0 outages=[] throughput=0x1.a79ec9cbd821ep+1"
    (fingerprint (Netsim.Detailed.run adaptive).Netsim.Runner.metrics);
  Alcotest.(check string) "MABC, fading, fixed"
    "delivered=65747 offered=239520 errors=0 outages=[1:37;2:13] throughput=0x1.188541ac2b25p+0"
    (fingerprint
       (Netsim.Detailed.run (faded_fixed Bidir.Protocol.Mabc)).Netsim.Runner.metrics)

let test_arq_pinned () =
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains in
  let opt = Bidir.Optimize.sum_rate Bidir.Protocol.Tdbc Bidir.Bound.Inner s in
  let r =
    Netsim.Arq.run
      { Netsim.Arq.protocol = Bidir.Protocol.Tdbc;
        power = Numerics.Float_utils.db_to_lin 10.;
        fading = Channel.Fading.create ~rng_seed:17 ~mean:paper_gains ();
        deltas = opt.Bidir.Optimize.deltas;
        ra = opt.Bidir.Optimize.ra *. 0.7;
        rb = opt.Bidir.Optimize.rb *. 0.7;
        block_symbols = 1_000;
        messages = 40;
        max_retries = 3;
        seed = 23;
      }
  in
  Alcotest.(check string) "TDBC + ARQ"
    "delivered=37 dropped=3 blocks=81 goodput=0x1.712c935ad8615p+0 \
     attempts=0x1.dd67c8a60dd68p+0 max=4"
    (Printf.sprintf "delivered=%d dropped=%d blocks=%d goodput=%h attempts=%h max=%d"
       r.Netsim.Arq.delivered_pairs r.Netsim.Arq.dropped_pairs
       r.Netsim.Arq.total_blocks r.Netsim.Arq.goodput r.Netsim.Arq.mean_attempts
       r.Netsim.Arq.max_attempts_seen)

let test_runner_validation () =
  let base =
    Netsim.Runner.default_config ~protocol:Bidir.Protocol.Mabc ~power_db:0.
      ~gains:paper_gains ()
  in
  Alcotest.check_raises "tiny blocks"
    (Invalid_argument "Runner: block_symbols must be at least 100") (fun () ->
      ignore (Netsim.Runner.run { base with Netsim.Runner.block_symbols = 10 }));
  Alcotest.check_raises "bad backoff"
    (Invalid_argument "Runner: backoff must be in [0, 1)") (fun () ->
      ignore
        (Netsim.Runner.run
           { base with Netsim.Runner.mode = Netsim.Runner.Adaptive { backoff = 1. } }));
  Alcotest.check_raises "schedule arity"
    (Invalid_argument "Runner: schedule arity does not match the protocol")
    (fun () ->
      ignore
        (Netsim.Runner.run
           { base with
             Netsim.Runner.mode =
               Netsim.Runner.Fixed { deltas = [| 1. |]; ra = 0.1; rb = 0.1 };
           }))

let test_elapsed_symbols () =
  let r =
    Netsim.Runner.run
      (Netsim.Runner.default_config ~protocol:Bidir.Protocol.Dt ~power_db:0.
         ~gains:paper_gains ~blocks:5 ~block_symbols:1_000 ())
  in
  Alcotest.(check (float 1e-9)) "5 blocks x 1000" 5_000.
    r.Netsim.Runner.elapsed_symbols

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_throughput_below_analytic =
  QCheck.Test.make ~count:20
    ~name:"measured throughput never exceeds the analytic optimum"
    QCheck.(pair (float_range (-5.) 15.) (int_range 0 4))
    (fun (power_db, pidx) ->
      let protocol = List.nth Bidir.Protocol.all pidx in
      let r =
        Netsim.Runner.run
          (Netsim.Runner.default_config ~protocol ~power_db ~gains:paper_gains
             ~blocks:5 ~block_symbols:2_000 ())
      in
      Netsim.Metrics.throughput r.Netsim.Runner.metrics
      <= r.Netsim.Runner.analytic_mean_sum_rate +. 1e-9)

let prop_queue_heap_invariant =
  QCheck.Test.make ~count:100 ~name:"queue pops in sorted order"
    QCheck.(list_of_size Gen.(int_range 1 100) (float_range 0. 1000.))
    (fun times ->
      let q = Netsim.Event_queue.create () in
      List.iter (fun t -> Netsim.Event_queue.push q ~time:t t) times;
      let rec drain last =
        match Netsim.Event_queue.pop q with
        | None -> true
        | Some (t, _) -> t >= last && drain t
      in
      drain neg_infinity)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_throughput_below_analytic; prop_queue_heap_invariant ]

let suites =
  [ ( "netsim.event_queue",
      [ Alcotest.test_case "order" `Quick test_queue_order;
        Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
        Alcotest.test_case "interleaved" `Quick test_queue_interleaved;
        Alcotest.test_case "size and nan" `Quick test_queue_size_and_nan;
        Alcotest.test_case "pop releases payload" `Quick
          test_queue_pop_releases_payload;
      ] );
    ( "netsim.engine",
      [ Alcotest.test_case "clock" `Quick test_engine_clock;
        Alcotest.test_case "until" `Quick test_engine_until;
        Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
      ] );
    ( "netsim.phy",
      [ Alcotest.test_case "p2p" `Quick test_phy_p2p;
        Alcotest.test_case "mac pentagon" `Quick test_phy_mac_pentagon;
        Alcotest.test_case "combined" `Quick test_phy_combined;
      ] );
    ( "netsim.packet",
      [ Alcotest.test_case "round trip" `Quick test_packet_round_trip;
        Alcotest.test_case "corruption detected" `Quick test_packet_corruption_detected;
        Alcotest.test_case "relay xor" `Quick test_packet_xor;
      ] );
    ( "netsim.metrics",
      [ Alcotest.test_case "accounting" `Quick test_metrics_accounting ] );
    ( "netsim.runner",
      [ Alcotest.test_case "adaptive = analytic" `Quick test_adaptive_matches_analytic;
        Alcotest.test_case "ordering matches paper" `Quick test_simulated_ordering_matches_paper;
        Alcotest.test_case "consistent with bounds" `Quick test_decode_outcome_consistent_with_bounds;
        Alcotest.test_case "DT routes directly" `Quick test_dt_routes_directly;
        Alcotest.test_case "warm block off the major heap" `Quick test_warm_block_major_alloc;
        Alcotest.test_case "fading: adaptive vs fixed" `Quick test_backoff_under_fading_reduces_outage;
        Alcotest.test_case "determinism" `Quick test_runner_determinism;
        Alcotest.test_case "seeded results pinned" `Quick test_runner_pinned;
        Alcotest.test_case "detailed pinned" `Quick test_detailed_pinned;
        Alcotest.test_case "arq pinned" `Quick test_arq_pinned;
        Alcotest.test_case "validation" `Quick test_runner_validation;
        Alcotest.test_case "virtual clock" `Quick test_elapsed_symbols;
      ] );
    ("netsim.properties", qcheck_cases);
  ]
