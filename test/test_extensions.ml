(* Tests for the extension modules: ergodic/fading analysis, relay
   selection, and the proportional-fair operating point. *)

let check_float ?(eps = 1e-7) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let paper_gains = Channel.Gains.paper_fig4

(* ------------------------------------------------------------------ *)
(* Ergodic                                                             *)
(* ------------------------------------------------------------------ *)

let test_ergodic_static_equals_instantaneous () =
  (* a static "fading" process has zero variance: the ergodic rate is
     exactly the single-shot optimum *)
  let fading = Channel.Fading.static paper_gains in
  let power = Numerics.Float_utils.db_to_lin 10. in
  let e =
    Bidir.Ergodic.ergodic_sum_rate ~blocks:10 fading ~power Bidir.Protocol.Tdbc
  in
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains in
  let expected =
    (Bidir.Optimize.sum_rate Bidir.Protocol.Tdbc Bidir.Bound.Inner s)
      .Bidir.Optimize.sum_rate
  in
  check_float ~eps:1e-9 "static ergodic = instantaneous" expected
    e.Bidir.Ergodic.mean;
  let lo, hi = e.Bidir.Ergodic.ci95 in
  check_float ~eps:1e-9 "zero-width CI (lo)" expected lo;
  check_float ~eps:1e-9 "zero-width CI (hi)" expected hi

let test_ergodic_below_mean_gain_rate () =
  (* Jensen: E[optimal sum rate over fading] < optimum at the mean gains
     (the per-protocol optimum is concave-ish in the gains at these
     operating points; validated empirically here) *)
  let fading = Channel.Fading.create ~rng_seed:3 ~mean:paper_gains () in
  let power = Numerics.Float_utils.db_to_lin 10. in
  let e =
    Bidir.Ergodic.ergodic_sum_rate ~blocks:3000 fading ~power
      Bidir.Protocol.Mabc
  in
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains in
  let at_mean =
    (Bidir.Optimize.sum_rate Bidir.Protocol.Mabc Bidir.Bound.Inner s)
      .Bidir.Optimize.sum_rate
  in
  Alcotest.(check bool) "ergodic < rate at mean gains" true
    (e.Bidir.Ergodic.mean < at_mean)

let test_ergodic_hbc_dominates () =
  let power = Numerics.Float_utils.db_to_lin 5. in
  let rate p seed =
    let fading = Channel.Fading.create ~rng_seed:seed ~mean:paper_gains () in
    (Bidir.Ergodic.ergodic_sum_rate ~blocks:400 fading ~power p)
      .Bidir.Ergodic.mean
  in
  (* same seed -> same fading sample path for each protocol *)
  Alcotest.(check bool) "HBC >= MABC" true
    (rate Bidir.Protocol.Hbc 9 >= rate Bidir.Protocol.Mabc 9 -. 1e-9);
  Alcotest.(check bool) "HBC >= TDBC" true
    (rate Bidir.Protocol.Hbc 9 >= rate Bidir.Protocol.Tdbc 9 -. 1e-9)

let test_outage_probability_monotone () =
  let fading = Channel.Fading.create ~rng_seed:5 ~mean:paper_gains () in
  let power = Numerics.Float_utils.db_to_lin 10. in
  let outage r =
    (Bidir.Ergodic.outage_probability ~blocks:600 fading ~power
       Bidir.Protocol.Tdbc ~ra:r ~rb:r)
      .Bidir.Ergodic.mean
  in
  let o_small = outage 0.2 and o_big = outage 2.0 in
  Alcotest.(check bool) "higher target -> more outage" true (o_small < o_big);
  check_float ~eps:1e-9 "zero rate never fails" 0. (outage 0.)

let test_epsilon_outage_rate () =
  let fading = Channel.Fading.create ~rng_seed:7 ~mean:paper_gains () in
  let power = Numerics.Float_utils.db_to_lin 10. in
  let r10 =
    Bidir.Ergodic.epsilon_outage_sum_rate ~blocks:400 fading ~power
      Bidir.Protocol.Tdbc ~epsilon:0.1
  in
  let r50 =
    Bidir.Ergodic.epsilon_outage_sum_rate ~blocks:400 fading ~power
      Bidir.Protocol.Tdbc ~epsilon:0.5
  in
  Alcotest.(check bool) "positive" true (r10 > 0.);
  Alcotest.(check bool) "looser epsilon buys rate" true (r50 > r10)

let test_ergodic_table_shape () =
  let t = Bidir.Ergodic.ergodic_table ~blocks:50 ~powers_db:[ 0. ] () in
  Alcotest.(check int) "5 protocols x 1 power" 5
    (List.length t.Bidir.Figures.rows)

(* ------------------------------------------------------------------ *)
(* Relay_selection                                                     *)
(* ------------------------------------------------------------------ *)

let pl = Channel.Pathloss.make ~exponent:3. ()

let test_candidates_on_line () =
  let cands =
    Bidir.Relay_selection.candidates_on_line pl ~positions:[ 0.25; 0.5; 0.75 ]
  in
  Alcotest.(check int) "three" 3 (List.length cands);
  match cands with
  | first :: _ ->
    Alcotest.(check string) "id" "r@0.25"
      first.Bidir.Relay_selection.relay_id
  | [] -> Alcotest.fail "no candidates"

let test_best_beats_each_candidate () =
  let cands =
    Bidir.Relay_selection.candidates_on_line pl
      ~positions:[ 0.2; 0.4; 0.6; 0.8 ]
  in
  let power = Numerics.Float_utils.db_to_lin 10. in
  let best = Bidir.Relay_selection.best ~power cands in
  List.iter
    (fun cand ->
      let single = Bidir.Relay_selection.best ~power [ cand ] in
      Alcotest.(check bool) "best >= every single" true
        (best.Bidir.Relay_selection.sum_rate
         >= single.Bidir.Relay_selection.sum_rate -. 1e-9))
    cands

let test_best_protocol_restriction () =
  let cands = Bidir.Relay_selection.candidates_on_line pl ~positions:[ 0.5 ] in
  let power = Numerics.Float_utils.db_to_lin 10. in
  let only_mabc =
    Bidir.Relay_selection.best ~protocols:[ Bidir.Protocol.Mabc ] ~power cands
  in
  Alcotest.(check bool) "restricted to MABC" true
    (only_mabc.Bidir.Relay_selection.protocol = Bidir.Protocol.Mabc);
  let free = Bidir.Relay_selection.best ~power cands in
  Alcotest.(check bool) "free choice at least as good" true
    (free.Bidir.Relay_selection.sum_rate
     >= only_mabc.Bidir.Relay_selection.sum_rate -. 1e-9)

let test_best_empty () =
  Alcotest.check_raises "no candidates"
    (Invalid_argument "Relay_selection.best: no candidates") (fun () ->
      ignore (Bidir.Relay_selection.best ~power:1. []))

let test_selection_gain () =
  let cands =
    Bidir.Relay_selection.candidates_on_line pl ~positions:[ 0.3; 0.5; 0.7 ]
  in
  let power = Numerics.Float_utils.db_to_lin 10. in
  let with_selection, fixed =
    Bidir.Relay_selection.selection_gain ~blocks:200 ~power cands
  in
  Alcotest.(check bool) "selection >= fixed" true
    (with_selection >= fixed -. 1e-9);
  Alcotest.(check bool) "both positive" true (fixed > 0.)

(* ------------------------------------------------------------------ *)
(* Proportional fairness                                               *)
(* ------------------------------------------------------------------ *)

let test_max_product_on_symmetric_region () =
  (* symmetric bound system: PF point must sit on the diagonal *)
  let mi =
    { Bidir.Templates.ab = 1.;
      ba = 1.;
      ar = 2.;
      br = 2.;
      ra = 2.;
      rb = 2.;
      mac_a = 2.;
      mac_b = 2.;
      mac_sum = 3.;
      a_rb = 2.2;
      b_ra = 2.2;
    }
  in
  let b = Bidir.Templates.mabc Bidir.Bound.Inner mi in
  let pf = Bidir.Rate_region.max_product b in
  check_float ~eps:1e-4 "diagonal" pf.Numerics.Vec2.x pf.Numerics.Vec2.y

let test_max_product_dominates_vertices () =
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains in
  List.iter
    (fun p ->
      let b = Bidir.Gaussian.bounds p Bidir.Bound.Inner s in
      let pf = Bidir.Rate_region.max_product b in
      let pf_product = pf.Numerics.Vec2.x *. pf.Numerics.Vec2.y in
      List.iter
        (fun (v : Numerics.Vec2.t) ->
          Alcotest.(check bool)
            (Bidir.Protocol.name p ^ " PF >= vertex product")
            true
            (pf_product >= (v.Numerics.Vec2.x *. v.Numerics.Vec2.y) -. 1e-9))
        (Bidir.Rate_region.boundary b);
      (* and the PF point itself is achievable *)
      Alcotest.(check bool) "PF point achievable" true
        (Bidir.Rate_region.achievable b ~ra:pf.Numerics.Vec2.x
           ~rb:pf.Numerics.Vec2.y))
    Bidir.Protocol.all

let test_max_product_beats_sum_corner_products () =
  (* the PF point's product is at least that of the sum-rate optimum *)
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains in
  let b = Bidir.Gaussian.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner s in
  let sum = Bidir.Rate_region.max_sum_rate b in
  let pf = Bidir.Rate_region.max_product b in
  Alcotest.(check bool) "pf product >= sum-point product" true
    (pf.Numerics.Vec2.x *. pf.Numerics.Vec2.y
     >= (sum.Bidir.Rate_region.ra *. sum.Bidir.Rate_region.rb) -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_pf_achievable =
  QCheck.Test.make ~count:40 ~name:"PF point always achievable"
    QCheck.(pair (float_range (-5.) 15.) (int_range 0 4))
    (fun (power_db, pidx) ->
      let protocol = List.nth Bidir.Protocol.all pidx in
      let s = Bidir.Gaussian.scenario ~power_db ~gains:paper_gains in
      let b = Bidir.Gaussian.bounds protocol Bidir.Bound.Inner s in
      let pf = Bidir.Rate_region.max_product b in
      Bidir.Rate_region.achievable b ~ra:pf.Numerics.Vec2.x
        ~rb:pf.Numerics.Vec2.y)

let prop_selection_monotone_in_candidates =
  QCheck.Test.make ~count:20 ~name:"more candidates never hurt selection"
    QCheck.(float_range 0. 15.)
    (fun power_db ->
      let power = Numerics.Float_utils.db_to_lin power_db in
      let few = Bidir.Relay_selection.candidates_on_line pl ~positions:[ 0.5 ] in
      let many =
        Bidir.Relay_selection.candidates_on_line pl
          ~positions:[ 0.5; 0.3; 0.7 ]
      in
      (Bidir.Relay_selection.best ~power many).Bidir.Relay_selection.sum_rate
      >= (Bidir.Relay_selection.best ~power few).Bidir.Relay_selection.sum_rate
         -. 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pf_achievable; prop_selection_monotone_in_candidates ]

let suites =
  [ ( "bidir.ergodic",
      [ Alcotest.test_case "static = instantaneous" `Quick
          test_ergodic_static_equals_instantaneous;
        Alcotest.test_case "below mean-gain rate" `Slow
          test_ergodic_below_mean_gain_rate;
        Alcotest.test_case "HBC dominates" `Quick test_ergodic_hbc_dominates;
        Alcotest.test_case "outage monotone" `Quick
          test_outage_probability_monotone;
        Alcotest.test_case "epsilon-outage rate" `Slow test_epsilon_outage_rate;
        Alcotest.test_case "table shape" `Quick test_ergodic_table_shape;
      ] );
    ( "bidir.relay_selection",
      [ Alcotest.test_case "candidates on line" `Quick test_candidates_on_line;
        Alcotest.test_case "best beats singles" `Quick
          test_best_beats_each_candidate;
        Alcotest.test_case "protocol restriction" `Quick
          test_best_protocol_restriction;
        Alcotest.test_case "empty" `Quick test_best_empty;
        Alcotest.test_case "selection gain" `Quick test_selection_gain;
      ] );
    ( "bidir.proportional_fair",
      [ Alcotest.test_case "symmetric diagonal" `Quick
          test_max_product_on_symmetric_region;
        Alcotest.test_case "dominates vertices" `Quick
          test_max_product_dominates_vertices;
        Alcotest.test_case "beats sum corner" `Quick
          test_max_product_beats_sum_corner_products;
      ] );
    ("bidir.extensions.properties", qcheck_cases);
  ]

(* ------------------------------------------------------------------ *)
(* Power allocation                                                    *)
(* ------------------------------------------------------------------ *)

let scen10 = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains

let test_peak_matches_lp () =
  (* under the paper's peak constraint the grid search must land within
     a small tolerance of the exact LP optimum *)
  List.iter
    (fun p ->
      let lp =
        (Bidir.Optimize.sum_rate p Bidir.Bound.Inner scen10)
          .Bidir.Optimize.sum_rate
      in
      let grid =
        Bidir.Power_allocation.sum_rate p scen10 Bidir.Power_allocation.Peak
      in
      Alcotest.(check bool)
        (Bidir.Protocol.name p ^ " grid close to LP")
        true
        (abs_float (grid.Bidir.Power_allocation.sum_rate -. lp) /. lp < 0.005
         && grid.Bidir.Power_allocation.sum_rate <= lp +. 1e-9))
    Bidir.Protocol.all

let test_energy_banking_helps () =
  List.iter
    (fun p ->
      let peak =
        Bidir.Power_allocation.sum_rate p scen10 Bidir.Power_allocation.Peak
      in
      let avg =
        Bidir.Power_allocation.sum_rate p scen10
          Bidir.Power_allocation.Average_energy
      in
      Alcotest.(check bool)
        (Bidir.Protocol.name p ^ " banking never hurts")
        true
        (avg.Bidir.Power_allocation.sum_rate
         >= peak.Bidir.Power_allocation.sum_rate -. 1e-6))
    Bidir.Protocol.all;
  (* and strictly helps where nodes are idle part of the block *)
  let peak =
    Bidir.Power_allocation.sum_rate Bidir.Protocol.Tdbc scen10
      Bidir.Power_allocation.Peak
  in
  let avg =
    Bidir.Power_allocation.sum_rate Bidir.Protocol.Tdbc scen10
      Bidir.Power_allocation.Average_energy
  in
  Alcotest.(check bool) "strict gain for TDBC" true
    (avg.Bidir.Power_allocation.sum_rate
     > peak.Bidir.Power_allocation.sum_rate +. 0.1)

let test_power_boost_consistency () =
  (* the boosted node powers satisfy the average-energy budget *)
  let r =
    Bidir.Power_allocation.sum_rate Bidir.Protocol.Mabc scen10
      Bidir.Power_allocation.Average_energy
  in
  let pa, pb, pr = r.Bidir.Power_allocation.node_powers in
  let d = r.Bidir.Power_allocation.deltas in
  (* MABC: terminals active in phase 1, relay in phase 2 *)
  Alcotest.(check (float 1e-6)) "a's energy = P" scen10.Bidir.Gaussian.power
    (pa *. d.(0));
  Alcotest.(check (float 1e-6)) "b's energy = P" scen10.Bidir.Gaussian.power
    (pb *. d.(0));
  Alcotest.(check (float 1e-6)) "r's energy = P" scen10.Bidir.Gaussian.power
    (pr *. d.(1))

let test_boost_table_shape () =
  let t = Bidir.Power_allocation.boost_table ~powers_db:[ 10. ] () in
  Alcotest.(check int) "relayed protocols" 4 (List.length t.Bidir.Figures.rows)

(* [figures power-boost --csv] pinned byte for byte: [figures all] does
   not render this table, so no other test sees its LP path. *)
let test_boost_table_csv () =
  let expected =
    String.concat "\n"
      [ "P (dB),protocol,peak,avg-energy,gain";
        "0,NAIVE,1.1456,1.7430,+52.1%";
        "0,MABC,1.8936,2.4773,+30.8%";
        "0,TDBC,1.7678,2.7998,+58.4%";
        "0,HBC,1.8983,2.7998,+47.5%";
        "10,NAIVE,2.6647,3.3789,+26.8%";
        "10,MABC,3.9923,4.6230,+15.8%";
        "10,TDBC,4.5096,5.7566,+27.7%";
        "10,HBC,4.5049,5.7566,+27.8%";
        "";
      ]
  in
  Alcotest.(check string) "power-boost CSV" expected
    (Report.table_csv (Bidir.Power_allocation.boost_table ()))

let power_allocation_cases =
  [ Alcotest.test_case "peak matches LP" `Quick test_peak_matches_lp;
    Alcotest.test_case "banking helps" `Quick test_energy_banking_helps;
    Alcotest.test_case "energy budget respected" `Quick test_power_boost_consistency;
    Alcotest.test_case "boost table" `Slow test_boost_table_shape;
    Alcotest.test_case "boost table CSV" `Quick test_boost_table_csv;
  ]

let suites = suites @ [ ("bidir.power_allocation", power_allocation_cases) ]

(* ------------------------------------------------------------------ *)
(* Time sharing (|Q| > 1)                                              *)
(* ------------------------------------------------------------------ *)

let test_union_contains_parts () =
  let s0 = Bidir.Gaussian.scenario ~power_db:0. ~gains:paper_gains in
  let b_mabc = Bidir.Gaussian.bounds Bidir.Protocol.Mabc Bidir.Bound.Inner s0 in
  let b_tdbc = Bidir.Gaussian.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner s0 in
  let union = Bidir.Rate_region.union_polygon [ b_mabc; b_tdbc ] in
  List.iter
    (fun b ->
      List.iter
        (fun (p : Numerics.Vec2.t) ->
          Alcotest.(check bool) "part vertex inside union" true
            (Numerics.Polygon.contains union p))
        (Bidir.Rate_region.boundary b))
    [ b_mabc; b_tdbc ];
  Alcotest.(check bool) "union is convex" true
    (Numerics.Hull.is_convex_ccw union)

let test_discrete_time_sharing_helps () =
  (* an asymmetric BSC network: time sharing between two asymmetric
     input tuples can beat each single tuple's region somewhere *)
  let net = Bidir.Discrete.bsc_network ~p_ab:0.25 ~p_ar:0.02 ~p_br:0.3 ~p_mac:0.1 in
  let ins q =
    { Bidir.Discrete.p_a = Infotheory.Pmf.binary q;
      p_b = Infotheory.Pmf.binary (1. -. q);
      p_r = Infotheory.Pmf.binary 0.5;
    }
  in
  let shared =
    Bidir.Discrete.time_shared_region Bidir.Protocol.Tdbc Bidir.Bound.Inner net
      [ ins 0.5; ins 0.2; ins 0.8 ]
  in
  let single =
    Bidir.Rate_region.polygon
      (Bidir.Discrete.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner net (ins 0.5))
  in
  (* the shared region contains the single region everywhere *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "single inside shared" true
        (Numerics.Polygon.contains shared p))
    single;
  Alcotest.(check bool) "shared at least as large" true
    (Numerics.Polygon.area shared >= Numerics.Polygon.area single -. 1e-9)

let time_sharing_cases =
  [ Alcotest.test_case "union contains parts" `Quick test_union_contains_parts;
    Alcotest.test_case "discrete time sharing" `Quick test_discrete_time_sharing_helps;
  ]

let suites = suites @ [ ("bidir.time_sharing", time_sharing_cases) ]

(* ------------------------------------------------------------------ *)
(* Full duplex reference                                               *)
(* ------------------------------------------------------------------ *)

let test_fd_dominates_half_duplex () =
  List.iter
    (fun power_db ->
      let s = Bidir.Gaussian.scenario ~power_db ~gains:paper_gains in
      let fd = Bidir.Fullduplex.sum_rate s in
      List.iter
        (fun p ->
          let hd =
            (Bidir.Optimize.sum_rate p Bidir.Bound.Inner s)
              .Bidir.Optimize.sum_rate
          in
          Alcotest.(check bool)
            (Printf.sprintf "FD >= %s at %g dB" (Bidir.Protocol.name p)
               power_db)
            true (fd >= hd -. 1e-9))
        Bidir.Protocol.relayed)
    [ -5.; 0.; 10.; 20. ]

let test_fd_hand_value () =
  (* symmetric unit-capacity links: Ra <= 1, Rb <= 1, sum <= C(2P G):
     at P G = 1 each: sum = C(2) = log2 3 *)
  let gains = Channel.Gains.make ~g_ab:0.1 ~g_ar:1. ~g_br:1. in
  let s = Bidir.Gaussian.scenario_lin ~power:1. ~gains in
  Alcotest.(check (float 1e-9)) "sum = log2 3"
    (Numerics.Float_utils.log2 3.)
    (Bidir.Fullduplex.sum_rate s)

let test_fd_penalty_table () =
  let t = Bidir.Fullduplex.penalty_table ~powers_db:[ 0.; 10. ] () in
  Alcotest.(check int) "rows" 2 (List.length t.Bidir.Figures.rows);
  List.iter
    (fun row ->
      match row with
      | [ _; fd; _; _ ] ->
        Alcotest.(check bool) "fd positive" true (float_of_string fd > 0.)
      | _ -> Alcotest.fail "row shape")
    t.Bidir.Figures.rows

let fullduplex_cases =
  [ Alcotest.test_case "FD dominates HD" `Quick test_fd_dominates_half_duplex;
    Alcotest.test_case "hand value" `Quick test_fd_hand_value;
    Alcotest.test_case "penalty table" `Quick test_fd_penalty_table;
  ]

let suites = suites @ [ ("bidir.fullduplex", fullduplex_cases) ]

let test_outage_figure () =
  let f = Bidir.Ergodic.outage_figure ~blocks:80 ~samples:5 () in
  Alcotest.(check int) "five series" 5 (List.length f.Bidir.Figures.series);
  (* every curve is non-decreasing in the target and within [0, 1] *)
  List.iter
    (fun (s : Bidir.Figures.series) ->
      let ys = List.map snd s.Bidir.Figures.points in
      List.iter
        (fun y ->
          Alcotest.(check bool) "probability range" true (y >= 0. && y <= 1.))
        ys;
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b +. 0.08 && non_decreasing rest
        | _ -> true
      in
      (* allow small Monte-Carlo wiggle *)
      Alcotest.(check bool)
        (s.Bidir.Figures.label ^ " roughly monotone")
        true (non_decreasing ys))
    f.Bidir.Figures.series

let suites =
  suites
  @ [ ("bidir.outage_figure",
       [ Alcotest.test_case "shape and monotonicity" `Quick test_outage_figure ])
    ]

(* ------------------------------------------------------------------ *)
(* Extension-wide properties                                           *)
(* ------------------------------------------------------------------ *)

let random_scenario_gen =
  QCheck.(
    map
      (fun ((p_db, ab_db), (d_ar, d_br)) ->
        let ar_db = ab_db +. d_ar in
        let br_db = ar_db +. d_br in
        Bidir.Gaussian.scenario ~power_db:p_db
          ~gains:(Channel.Gains.of_db ~g_ab:ab_db ~g_ar:ar_db ~g_br:br_db))
      (pair
         (pair (float_range (-8.) 18.) (float_range (-5.) 5.))
         (pair (float_range 0. 8.) (float_range 0. 8.))))

let prop_energy_banking_never_hurts =
  QCheck.Test.make ~count:25 ~name:"average-energy >= peak everywhere"
    QCheck.(pair random_scenario_gen (int_range 0 4))
    (fun (s, pidx) ->
      let protocol = List.nth Bidir.Protocol.all pidx in
      let peak =
        Bidir.Power_allocation.sum_rate ~resolution:10 ~refinements:1 protocol
          s Bidir.Power_allocation.Peak
      in
      let avg =
        Bidir.Power_allocation.sum_rate ~resolution:10 ~refinements:1 protocol
          s Bidir.Power_allocation.Average_energy
      in
      avg.Bidir.Power_allocation.sum_rate
      >= peak.Bidir.Power_allocation.sum_rate -. 1e-6)

let prop_fd_dominates =
  QCheck.Test.make ~count:40 ~name:"full duplex >= every half-duplex protocol"
    random_scenario_gen (fun s ->
      let fd = Bidir.Fullduplex.sum_rate s in
      List.for_all
        (fun p ->
          fd
          >= (Bidir.Optimize.sum_rate p Bidir.Bound.Inner s)
               .Bidir.Optimize.sum_rate
             -. 1e-7)
        Bidir.Protocol.relayed)

let prop_union_contains_parts =
  QCheck.Test.make ~count:25 ~name:"union polygon contains its parts"
    random_scenario_gen (fun s ->
      let parts =
        List.map
          (fun p -> Bidir.Gaussian.bounds p Bidir.Bound.Inner s)
          [ Bidir.Protocol.Mabc; Bidir.Protocol.Tdbc ]
      in
      let union = Bidir.Rate_region.union_polygon parts in
      List.for_all
        (fun b ->
          List.for_all
            (fun (v : Numerics.Vec2.t) -> Numerics.Polygon.contains union v)
            (Bidir.Rate_region.boundary b))
        parts)

let prop_traffic_utilisation_bounded =
  QCheck.Test.make ~count:15 ~name:"traffic utilisation in [0, 1]"
    QCheck.(pair (float_range 0.1 1.3) (int_range 0 4))
    (fun (load, pidx) ->
      let r =
        Netsim.Traffic.run
          { Netsim.Traffic.protocol = List.nth Bidir.Protocol.all pidx;
            power = Numerics.Float_utils.db_to_lin 10.;
            gains = paper_gains;
            load;
            block_symbols = 500;
            blocks = 200;
            seed = pidx + 1;
          }
      in
      r.Netsim.Traffic.utilisation >= 0.
      && r.Netsim.Traffic.utilisation <= 1.0 +. 1e-9
      && r.Netsim.Traffic.carried_bits <= r.Netsim.Traffic.offered_bits)

let prop_ergodic_ci_brackets_mean =
  QCheck.Test.make ~count:10 ~name:"ergodic CI brackets the mean"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let fading = Channel.Fading.create ~rng_seed:seed ~mean:paper_gains () in
      let e =
        Bidir.Ergodic.ergodic_sum_rate ~blocks:100 fading ~power:5.
          Bidir.Protocol.Mabc
      in
      let lo, hi = e.Bidir.Ergodic.ci95 in
      lo <= e.Bidir.Ergodic.mean && e.Bidir.Ergodic.mean <= hi)

let suites =
  suites
  @ [ ( "bidir.extension_properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_energy_banking_never_hurts;
            prop_fd_dominates;
            prop_union_contains_parts;
            prop_traffic_utilisation_bounded;
            prop_ergodic_ci_brackets_mean;
          ] )
    ]
