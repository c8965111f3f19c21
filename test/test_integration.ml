(* Cross-library integration tests: theory <-> simulator <-> report. *)

let paper_gains = Channel.Gains.paper_fig4

(* ------------------------------------------------------------------ *)
(* Inner bound <-> simulator decode logic                              *)
(* ------------------------------------------------------------------ *)

(* If a rate pair satisfies the inner bound at some schedule, the
   simulator must deliver both messages at that schedule (the converse
   can fail: the simulator's direct-link fallback can rescue pairs the
   relay-decoding bound rejects). *)
let prop_bound_satisfied_implies_delivery =
  QCheck.Test.make ~count:150 ~name:"inner bound satisfied => decode succeeds"
    QCheck.(quad (float_range (-5.) 15.) (int_range 0 4)
              (pair (float_range 0. 1.) (float_range 0. 1.))
              (pair (float_range 0.05 0.95) (float_range 0.05 0.95)))
    (fun (power_db, pidx, (ka, kb), (w1, w2)) ->
      let protocol = List.nth Bidir.Protocol.all pidx in
      let s = Bidir.Gaussian.scenario ~power_db ~gains:paper_gains in
      let b = Bidir.Gaussian.bounds protocol Bidir.Bound.Inner s in
      (* a random feasible schedule from two stick-breaking weights *)
      let l = Bidir.Protocol.num_phases protocol in
      let deltas =
        match l with
        | 2 -> [| w1; 1. -. w1 |]
        | 3 -> [| w1 *. w2; w1 *. (1. -. w2); 1. -. w1 |]
        | 4 ->
          [| w1 *. w2;
             w1 *. (1. -. w2);
             (1. -. w1) *. w2;
             (1. -. w1) *. (1. -. w2);
          |]
        | _ -> assert false (* protocols have 2-4 phases *)
      in
      (* scale a boundary point into the fixed-schedule region *)
      let r = Bidir.Rate_region.max_sum_rate b in
      let ra = ka *. r.Bidir.Rate_region.ra in
      let rb = kb *. r.Bidir.Rate_region.rb in
      let satisfied = Bidir.Bound.satisfied b ~deltas ~ra ~rb in
      if not satisfied then true (* implication trivially holds *)
      else begin
        let outcome =
          Netsim.Runner.decode_outcome protocol ~power:s.Bidir.Gaussian.power
            ~gains:paper_gains ~deltas ~ra ~rb
        in
        outcome.Netsim.Runner.b_gets_a && outcome.Netsim.Runner.a_gets_b
      end)

(* the simulator's per-protocol decode logic must agree between the
   block-level and the event-driven implementations on arbitrary fixed
   schedules under fading *)
let test_runner_detailed_agree_random_schedules () =
  let rng = Prob.Rng.create ~seed:77 in
  for _ = 1 to 12 do
    let protocol =
      List.nth Bidir.Protocol.all (Prob.Rng.int rng 5)
    in
    let l = Bidir.Protocol.num_phases protocol in
    let raw = Array.init l (fun _ -> 0.1 +. Prob.Rng.float rng) in
    let total = Numerics.Float_utils.sum raw in
    let deltas = Array.map (fun v -> v /. total) raw in
    let ra = 0.3 +. Prob.Rng.float rng and rb = 0.3 +. Prob.Rng.float rng in
    let seed = Prob.Rng.int rng 10_000 in
    let mk () =
      { (Netsim.Runner.default_config ~protocol ~power_db:8.
           ~gains:paper_gains ~blocks:60 ~block_symbols:500 ())
        with
        Netsim.Runner.fading =
          Channel.Fading.create ~rng_seed:seed ~mean:paper_gains ();
        mode = Netsim.Runner.Fixed { deltas; ra; rb };
        block_symbols = 500;
      }
    in
    let r1 = Netsim.Runner.run (mk ()) in
    let r2 = Netsim.Detailed.run (mk ()) in
    Alcotest.(check int)
      (Bidir.Protocol.name protocol ^ " same delivered bits")
      (Netsim.Metrics.delivered_bits r1.Netsim.Runner.metrics)
      (Netsim.Metrics.delivered_bits r2.Netsim.Runner.metrics)
  done

(* ------------------------------------------------------------------ *)
(* Figures <-> direct computation                                      *)
(* ------------------------------------------------------------------ *)

let test_fig3_snr_matches_optimize () =
  let f = Bidir.Figures.fig3_snr ~samples:5 () in
  let tdbc =
    List.find (fun s -> s.Bidir.Figures.label = "TDBC") f.Bidir.Figures.series
  in
  List.iter
    (fun (power_db, y) ->
      let s = Bidir.Gaussian.scenario ~power_db ~gains:paper_gains in
      let expected =
        (Bidir.Optimize.sum_rate Bidir.Protocol.Tdbc Bidir.Bound.Inner s)
          .Bidir.Optimize.sum_rate
      in
      Alcotest.(check (float 1e-9)) "series point = direct optimum" expected y)
    tdbc.Bidir.Figures.points

let test_fig4_vertices_achievable () =
  let f = Bidir.Figures.fig4 ~power_db:10. () in
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains in
  let hbc_inner =
    List.find (fun x -> x.Bidir.Figures.label = "HBC inner") f.Bidir.Figures.series
  in
  let b = Bidir.Gaussian.bounds Bidir.Protocol.Hbc Bidir.Bound.Inner s in
  List.iter
    (fun (ra, rb) ->
      Alcotest.(check bool) "series vertex achievable" true
        (Bidir.Rate_region.achievable b ~ra ~rb))
    hbc_inner.Bidir.Figures.points

let test_csv_round_trip_values () =
  (* csv rows re-parse to the original series values *)
  let f = Bidir.Figures.fig3_snr ~samples:4 () in
  let csv = Report.figure_csv f in
  let lines = String.split_on_char '\n' csv in
  let data_lines =
    List.filter (fun l -> l <> "" && l <> "series,x,y") lines
  in
  Alcotest.(check int) "row count" (5 * 4) (List.length data_lines);
  let parsed =
    List.map
      (fun l ->
        match String.split_on_char ',' l with
        | [ label; x; y ] -> (label, float_of_string x, float_of_string y)
        | _ -> Alcotest.fail ("bad csv line: " ^ l))
      data_lines
  in
  List.iter
    (fun (series : Bidir.Figures.series) ->
      List.iter
        (fun (x, y) ->
          Alcotest.(check bool) "value present" true
            (List.exists
               (fun (l, x', y') ->
                 l = series.Bidir.Figures.label
                 && abs_float (x -. x') < 1e-5
                 && abs_float (y -. y') < 1e-5)
               parsed))
        series.Bidir.Figures.points)
    f.Bidir.Figures.series

(* ------------------------------------------------------------------ *)
(* Discrete evaluation <-> infotheory                                  *)
(* ------------------------------------------------------------------ *)

let test_discrete_tdbc_matches_formula () =
  (* symmetric BSC network: the TDBC sum rate has a closed form.
     With all links BSC(p) and uniform inputs, every MI is c = 1 - H(p);
     constraints Ra <= d1 c, Ra <= (d1 + d3) c, ... reduce to the
     two-hop split sum = c (relay decode binds; side info covers the
     rest), i.e. max over d of min(d1, d2) pattern -> sum rate = c. *)
  let p = 0.08 in
  let c = 1. -. Infotheory.Info.binary_entropy p in
  let net = Bidir.Discrete.bsc_network ~p_ab:p ~p_ar:p ~p_br:p ~p_mac:p in
  let b =
    Bidir.Discrete.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner net
      (Bidir.Discrete.uniform_inputs net)
  in
  Alcotest.(check (float 1e-6)) "sum rate = 1 - H(p)" c
    (Bidir.Rate_region.sum (Bidir.Rate_region.max_sum_rate b))

let test_arq_attempts_match_outage () =
  (* mean ARQ attempts for a delivered pair ~ 1 / (1 - p_out) where
     p_out is the analytic pair-outage probability of the fixed rates *)
  let protocol = Bidir.Protocol.Mabc in
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains in
  let opt = Bidir.Optimize.sum_rate protocol Bidir.Bound.Inner s in
  let backoff = 0.4 in
  let ra = opt.Bidir.Optimize.ra *. (1. -. backoff) in
  let rb = opt.Bidir.Optimize.rb *. (1. -. backoff) in
  (* analytic-ish: Monte-Carlo outage of the fixed schedule *)
  let fading seed = Channel.Fading.create ~rng_seed:seed ~mean:paper_gains () in
  let f = fading 31 in
  let outs = ref 0 in
  let trials = 4000 in
  for _ = 1 to trials do
    let gains = Channel.Fading.draw f in
    let o =
      Netsim.Runner.decode_outcome protocol ~power:s.Bidir.Gaussian.power
        ~gains ~deltas:opt.Bidir.Optimize.deltas ~ra ~rb
    in
    if not (o.Netsim.Runner.b_gets_a && o.Netsim.Runner.a_gets_b) then incr outs
  done;
  let p_out = float_of_int !outs /. float_of_int trials in
  let r =
    Netsim.Arq.run
      { Netsim.Arq.protocol;
        power = s.Bidir.Gaussian.power;
        fading = fading 32;
        deltas = opt.Bidir.Optimize.deltas;
        ra;
        rb;
        block_symbols = 500;
        messages = 1500;
        max_retries = 30;
        seed = 33;
      }
  in
  let expected = 1. /. (1. -. p_out) in
  Alcotest.(check bool)
    (Printf.sprintf "attempts %.3f ~ geometric mean %.3f"
       r.Netsim.Arq.mean_attempts expected)
    true
    (abs_float (r.Netsim.Arq.mean_attempts -. expected) /. expected < 0.1)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_bound_satisfied_implies_delivery ]

let suites =
  [ ( "integration",
      [ Alcotest.test_case "runner = detailed on random schedules" `Quick
          test_runner_detailed_agree_random_schedules;
        Alcotest.test_case "fig3-snr = Optimize" `Quick test_fig3_snr_matches_optimize;
        Alcotest.test_case "fig4 vertices achievable" `Quick test_fig4_vertices_achievable;
        Alcotest.test_case "csv round trip" `Quick test_csv_round_trip_values;
        Alcotest.test_case "discrete TDBC closed form" `Quick
          test_discrete_tdbc_matches_formula;
        Alcotest.test_case "ARQ attempts ~ geometric" `Slow
          test_arq_attempts_match_outage;
      ]
      @ qcheck_cases );
  ]
