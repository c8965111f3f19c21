let tx src packet rate =
  { Radio.tx_src = src; tx_packet = packet; tx_rate = rate }

let run (cfg : Runner.config) =
  Runner.validate cfg;
  let metrics = Metrics.create () in
  let engine = Engine.create () in
  let rng = Prob.Rng.create ~seed:cfg.seed in
  let n = cfg.block_symbols in
  let nf = float_of_int n in
  let radio =
    Radio.create engine ~power:cfg.power ~gains:(Channel.Fading.mean cfg.fading)
  in
  let node_a = Node.create Packet.A ~block_symbols:n in
  let node_b = Node.create Packet.B ~block_symbols:n in
  let node_r = Node.create Packet.R ~block_symbols:n in
  Radio.set_receiver radio Packet.A (Node.observe node_a);
  Radio.set_receiver radio Packet.B (Node.observe node_b);
  Radio.set_receiver radio Packet.R (Node.observe node_r);
  let analytic_acc = ref 0. in
  (* a terminal's CRC and payload check; a wrong payload that passed the
     CRC is a bit error *)
  let check ~own (p : Packet.t) expected =
    match Coding.Xor_relay.check_framed ~own p.payload ~expected with
    | None -> false
    | Some ok ->
      if not ok then Metrics.record_bit_error metrics;
      ok
  in
  (* blocks are chained (each finalize schedules the next) rather than
     all scheduled upfront: at a shared timestamp the FIFO tie-break
     would otherwise start block i+1 — and reset the nodes — before
     block i's finalize reads their budgets *)
  let rec run_block index =
    let t0 = float_of_int (index * n) in
    let gains = Channel.Fading.draw cfg.fading in
    Radio.set_gains radio gains;
    let plan = Runner.plan cfg gains in
    analytic_acc := !analytic_acc +. plan.Runner.optimum;
    let bits_a = int_of_float (plan.Runner.ra *. nf) in
    let bits_b = int_of_float (plan.Runner.rb *. nf) in
    let ra_eff = float_of_int bits_a /. nf in
    let rb_eff = float_of_int bits_b /. nf in
    Node.reset node_a;
    Node.reset node_b;
    Node.reset node_r;
    let wa = Coding.Bitvec.random rng bits_a in
    let wb = Coding.Bitvec.random rng bits_b in
    let pkt_a = Packet.fresh ~src:Packet.A ~seq:index wa in
    let pkt_b = Packet.fresh ~src:Packet.B ~seq:index wb in
    (* phase boundaries, with the final edge pinned to exactly t0 + nf so
       accumulated rounding can never spill a phase into the next block.
       Durations are clamped at zero first: an LP optimum can carry a
       phase of -1e-16, which would end before it starts *)
    let deltas = Array.map (Float.max 0.) plan.Runner.deltas in
    let num_phases = Array.length deltas in
    let total = Numerics.Float_utils.sum deltas in
    let boundaries =
      Array.init (num_phases + 1) (fun l ->
          if l = num_phases then t0 +. nf
          else begin
            let cum = ref 0. in
            for k = 0 to l - 1 do
              cum := !cum +. deltas.(k)
            done;
            t0 +. (nf *. !cum /. total)
          end)
    in
    let start l = boundaries.(l) in
    let dur l = boundaries.(l + 1) -. boundaries.(l) in
    let phase_rate bits l =
      if dur l <= 0. then 0. else float_of_int bits /. dur l
    in
    let relay_bcast_ok = ref false in
    (* the relay's broadcast decision, made live at its phase start *)
    let schedule_relay_phase ~phase_index ~after =
      Engine.schedule_at engine ~time:(start phase_index) (fun () ->
          let ok =
            Node.relay_can_decode_both node_r ~ra:ra_eff ~rb:rb_eff
            && Node.packet_from node_r Packet.A <> None
            && Node.packet_from node_r Packet.B <> None
          in
          relay_bcast_ok := ok;
          let transmissions =
            if ok then begin
              match
                ( Node.packet_from node_r Packet.A,
                  Node.packet_from node_r Packet.B )
              with
              | Some pa, Some pb ->
                [ tx Packet.R
                    (Packet.xor_payloads pa pb ~src:Packet.R ~seq:index)
                    0.
                ]
              | _ -> assert false (* guarded by [ok] above *)
            end
            else [] (* decode failure: the relay stays silent *)
          in
          Radio.phase radio ~start:(start phase_index)
            ~duration:(dur phase_index) ~transmissions;
          after ())
    in
    let finalize () =
      (* terminal decode: direct side information, plus the broadcast
         budget when the relay sent a valid XOR *)
      let decode ~at ~own_word ~src ~expected ~bits ~rate =
        let direct = Node.budget at src in
        let success =
          if !relay_bcast_ok then
            rate <= direct +. Node.budget at Packet.R +. 1e-9
          else rate <= direct +. 1e-9
        in
        if not success then false
        else if !relay_bcast_ok then begin
          match Node.packet_from at Packet.R with
          | None -> false
          | Some pr -> check ~own:own_word pr expected
        end
        else begin
          match Node.packet_from at src with
          | None -> bits = 0 (* nothing was sent and nothing was needed *)
          | Some p -> check ~own:Coding.Bitvec.empty p expected
        end
      in
      let delivered_a =
        decode ~at:node_b ~own_word:wb ~src:Packet.A ~expected:wa ~bits:bits_a
          ~rate:ra_eff
      in
      let delivered_b =
        decode ~at:node_a ~own_word:wa ~src:Packet.B ~expected:wb ~bits:bits_b
          ~rate:rb_eff
      in
      if not (delivered_a && delivered_b) then begin
        let relay_phase, bcast_phase =
          match cfg.Runner.protocol with
          | Bidir.Protocol.Dt -> (1, 2)
          | Bidir.Protocol.Naive -> (1, 2) (* has its own finalize *)
          | Bidir.Protocol.Mabc -> (1, 2)
          | Bidir.Protocol.Tdbc -> (1, 3)
          | Bidir.Protocol.Hbc -> (3, 4)
        in
        Metrics.record_phase_outage metrics
          ~phase:(if !relay_bcast_ok then bcast_phase else relay_phase)
      end;
      Metrics.record_block metrics ~symbols:n ~bits_a ~bits_b ~delivered_a
        ~delivered_b;
      if index + 1 < cfg.Runner.blocks then
        Engine.schedule_at engine
          ~time:(float_of_int ((index + 1) * n))
          (fun () -> run_block (index + 1))
    in
    let schedule_finalize () =
      Engine.schedule_at engine ~time:(t0 +. nf) finalize
    in
    (* --- naive routing: addressed store-and-forward, no coding --- *)
    let naive_fwd_a = ref false and naive_fwd_b = ref false in
    let naive_forward ~phase_index ~src ~dst ~rate ~forwarded ~after =
      Engine.schedule_at engine ~time:(start phase_index) (fun () ->
          let ok =
            rate <= Node.budget_addressed node_r src +. 1e-9
            && Node.packet_addressed_from node_r src <> None
          in
          forwarded := ok;
          let transmissions =
            if ok then begin
              match Node.packet_addressed_from node_r src with
              | Some p -> [ tx Packet.R (Packet.readdress p ~src:Packet.R ~dst) 0. ]
              | None -> assert false (* guarded by [ok] *)
            end
            else []
          in
          Radio.phase radio ~start:(start phase_index)
            ~duration:(dur phase_index) ~transmissions;
          after ())
    in
    let naive_finalize () =
      let decode ~at ~forwarded ~expected ~rate =
        forwarded
        && rate <= Node.budget_addressed at Packet.R +. 1e-9
        &&
        match Node.packet_addressed_from at Packet.R with
        | None -> false
        | Some p -> check ~own:Coding.Bitvec.empty p expected
      in
      let delivered_a =
        decode ~at:node_b ~forwarded:!naive_fwd_a ~expected:wa ~rate:ra_eff
      in
      let delivered_b =
        decode ~at:node_a ~forwarded:!naive_fwd_b ~expected:wb ~rate:rb_eff
      in
      if not (delivered_a && delivered_b) then
        Metrics.record_phase_outage metrics
          ~phase:
            (if not !naive_fwd_a then 1
             else if not delivered_a then 2
             else if not !naive_fwd_b then 3
             else 4);
      Metrics.record_block metrics ~symbols:n ~bits_a ~bits_b ~delivered_a
        ~delivered_b;
      if index + 1 < cfg.Runner.blocks then
        Engine.schedule_at engine
          ~time:(float_of_int ((index + 1) * n))
          (fun () -> run_block (index + 1))
    in
    match cfg.Runner.protocol with
    | Bidir.Protocol.Dt ->
      Radio.phase radio ~start:(start 0) ~duration:(dur 0)
        ~transmissions:[ tx Packet.A pkt_a (phase_rate bits_a 0) ];
      Radio.phase radio ~start:(start 1) ~duration:(dur 1)
        ~transmissions:[ tx Packet.B pkt_b (phase_rate bits_b 1) ];
      (* no relay in DT: decoding is direct-only *)
      relay_bcast_ok := false;
      schedule_finalize ()
    | Bidir.Protocol.Naive ->
      (* uplink hops are addressed to the relay, so the opposite
         terminal drops them — the strawman ignores side information *)
      let pkt_ar = Packet.fresh ~src:Packet.A ~dst:Packet.R ~seq:index wa in
      let pkt_br = Packet.fresh ~src:Packet.B ~dst:Packet.R ~seq:index wb in
      (* hops are chained through the planner callbacks: scheduling a
         later hop eagerly would let its start event beat the previous
         hop's end event at a shared timestamp *)
      Radio.phase radio ~start:(start 0) ~duration:(dur 0)
        ~transmissions:[ tx Packet.A pkt_ar (phase_rate bits_a 0) ];
      naive_forward ~phase_index:1 ~src:Packet.A ~dst:Packet.B ~rate:ra_eff
        ~forwarded:naive_fwd_a ~after:(fun () ->
          Radio.phase radio ~start:(start 2) ~duration:(dur 2)
            ~transmissions:[ tx Packet.B pkt_br (phase_rate bits_b 2) ];
          naive_forward ~phase_index:3 ~src:Packet.B ~dst:Packet.A
            ~rate:rb_eff ~forwarded:naive_fwd_b ~after:(fun () ->
              Engine.schedule_at engine ~time:(t0 +. nf) naive_finalize))
    | Bidir.Protocol.Mabc ->
      Radio.phase radio ~start:(start 0) ~duration:(dur 0)
        ~transmissions:
          [ tx Packet.A pkt_a (phase_rate bits_a 0);
            tx Packet.B pkt_b (phase_rate bits_b 0);
          ];
      schedule_relay_phase ~phase_index:1 ~after:schedule_finalize
    | Bidir.Protocol.Tdbc ->
      Radio.phase radio ~start:(start 0) ~duration:(dur 0)
        ~transmissions:[ tx Packet.A pkt_a (phase_rate bits_a 0) ];
      Radio.phase radio ~start:(start 1) ~duration:(dur 1)
        ~transmissions:[ tx Packet.B pkt_b (phase_rate bits_b 1) ];
      schedule_relay_phase ~phase_index:2 ~after:schedule_finalize
    | Bidir.Protocol.Hbc ->
      Radio.phase radio ~start:(start 0) ~duration:(dur 0)
        ~transmissions:[ tx Packet.A pkt_a (phase_rate bits_a 0) ];
      Radio.phase radio ~start:(start 1) ~duration:(dur 1)
        ~transmissions:[ tx Packet.B pkt_b (phase_rate bits_b 1) ];
      Radio.phase radio ~start:(start 2) ~duration:(dur 2)
        ~transmissions:
          [ tx Packet.A pkt_a (phase_rate bits_a 2);
            tx Packet.B pkt_b (phase_rate bits_b 2);
          ];
      schedule_relay_phase ~phase_index:3 ~after:schedule_finalize
  in
  Engine.schedule_at engine ~time:0. (fun () -> run_block 0);
  Engine.run engine;
  { Runner.metrics;
    analytic_mean_sum_rate = !analytic_acc /. float_of_int cfg.Runner.blocks;
    elapsed_symbols = Engine.now engine;
  }
