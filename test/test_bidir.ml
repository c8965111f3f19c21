(* Tests for the core library: protocols, bounds, rate regions,
   optimisation, discrete evaluation, figure generators. *)

let check_float ?(eps = 1e-7) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let paper_gains = Channel.Gains.paper_fig4
let scen ~power_db = Bidir.Gaussian.scenario ~power_db ~gains:paper_gains

let sum_rate p kind s =
  (Bidir.Optimize.sum_rate p kind s).Bidir.Optimize.sum_rate

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_names () =
  Alcotest.(check (list string)) "names"
    [ "DT"; "NAIVE"; "MABC"; "TDBC"; "HBC" ]
    (List.map Bidir.Protocol.name Bidir.Protocol.all);
  List.iter
    (fun p ->
      Alcotest.(check bool) "round trip" true
        (Bidir.Protocol.of_string (Bidir.Protocol.name p) = Some p))
    Bidir.Protocol.all;
  Alcotest.(check bool) "unknown" true (Bidir.Protocol.of_string "xyz" = None)

let test_protocol_phases () =
  Alcotest.(check (list int)) "phase counts" [ 2; 4; 2; 3; 4 ]
    (List.map Bidir.Protocol.num_phases Bidir.Protocol.all);
  Alcotest.(check string) "MABC phase 1" "a,b -> r (MAC)"
    (Bidir.Protocol.phase_description Bidir.Protocol.Mabc 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Protocol.phase_description: phase out of range")
    (fun () -> ignore (Bidir.Protocol.phase_description Bidir.Protocol.Dt 3))

(* ------------------------------------------------------------------ *)
(* Bound                                                               *)
(* ------------------------------------------------------------------ *)

let test_bound_validation () =
  Alcotest.check_raises "arity"
    (Invalid_argument "Bound.make: per-phase coefficient arity mismatch")
    (fun () ->
      ignore
        (Bidir.Bound.make ~protocol:Bidir.Protocol.Dt
           ~bound_kind:Bidir.Bound.Inner ~num_phases:2
           ~terms:[ Bidir.Bound.term ~ca:1. ~cb:0. [| 1. |] ]))

let test_bound_satisfied () =
  let b =
    Bidir.Bound.make ~protocol:Bidir.Protocol.Dt ~bound_kind:Bidir.Bound.Inner
      ~num_phases:2
      ~terms:
        [ Bidir.Bound.term ~ca:1. ~cb:0. [| 2.; 0. |];
          Bidir.Bound.term ~ca:0. ~cb:1. [| 0.; 3. |];
        ]
  in
  let deltas = [| 0.5; 0.5 |] in
  Alcotest.(check bool) "inside" true
    (Bidir.Bound.satisfied b ~deltas ~ra:1. ~rb:1.5);
  Alcotest.(check bool) "ra too big" false
    (Bidir.Bound.satisfied b ~deltas ~ra:1.1 ~rb:1.);
  Alcotest.check_raises "bad durations"
    (Invalid_argument "Bound.satisfied: durations must sum to 1") (fun () ->
      ignore (Bidir.Bound.satisfied b ~deltas:[| 0.4; 0.4 |] ~ra:0. ~rb:0.))

(* ------------------------------------------------------------------ *)
(* Gaussian link rates                                                 *)
(* ------------------------------------------------------------------ *)

let test_link_rates_values () =
  (* P = 0 dB, gains 0/5/7 dB: c_ab = log2 2 = 1 *)
  let r = Bidir.Gaussian.link_rates (scen ~power_db:0.) in
  check_float "c_ab" 1. r.Bidir.Gaussian.c_ab;
  check_float ~eps:1e-6 "c_ar"
    (Numerics.Float_utils.log2 (1. +. Numerics.Float_utils.db_to_lin 5.))
    r.Bidir.Gaussian.c_ar;
  Alcotest.(check bool) "mac > each" true
    (r.Bidir.Gaussian.c_mac > r.Bidir.Gaussian.c_br
     && r.Bidir.Gaussian.c_mac > r.Bidir.Gaussian.c_ar);
  Alcotest.(check bool) "joint > single" true
    (r.Bidir.Gaussian.c_a_rb > r.Bidir.Gaussian.c_ar)

let test_scenario_db_vs_lin () =
  let s1 = Bidir.Gaussian.scenario ~power_db:10. ~gains:paper_gains in
  let s2 = Bidir.Gaussian.scenario_lin ~power:10. ~gains:paper_gains in
  check_float "same power" s1.Bidir.Gaussian.power s2.Bidir.Gaussian.power

(* ------------------------------------------------------------------ *)
(* Rate regions: hand-checkable LP                                      *)
(* ------------------------------------------------------------------ *)

(* A hand-built MABC-shaped system: individual rates 2 d1 / 3 d2 and a
   MAC sum of 3 d1. Optimal sum rate is 2 at d1 = 2/3 (see the linprog
   test of the same LP). *)
let hand_mi =
  { Bidir.Templates.ab = 0.1;
    ba = 0.1;
    ar = 2.;
    br = 2.;
    ra = 3.;
    rb = 3.;
    mac_a = 2.;
    mac_b = 2.;
    mac_sum = 3.;
    a_rb = 2.05;
    b_ra = 2.05;
  }

let test_hand_mabc_sum_rate () =
  let b = Bidir.Templates.mabc Bidir.Bound.Inner hand_mi in
  let r = Bidir.Rate_region.max_sum_rate b in
  check_float "sum rate" 2. (Bidir.Rate_region.sum r);
  check_float ~eps:1e-6 "d1" (2. /. 3.) r.Bidir.Rate_region.deltas.(0);
  check_float ~eps:1e-6 "durations sum to 1" 1.
    (Numerics.Float_utils.sum r.Bidir.Rate_region.deltas)

let test_hand_dt_region () =
  let b = Bidir.Templates.dt hand_mi in
  (* Ra <= 0.1 d1, Rb <= 0.1 d2: sum rate = 0.1 regardless of split *)
  let r = Bidir.Rate_region.max_sum_rate b in
  check_float "dt sum" 0.1 (Bidir.Rate_region.sum r);
  let ra = Bidir.Rate_region.max_ra b in
  check_float "dt max ra" 0.1 ra.Bidir.Rate_region.ra;
  check_float ~eps:1e-5 "rb zero at corner" 0. ra.Bidir.Rate_region.rb

let test_achievable_probe () =
  let b = Bidir.Templates.mabc Bidir.Bound.Inner hand_mi in
  Alcotest.(check bool) "optimum achievable" true
    (Bidir.Rate_region.achievable b ~ra:1. ~rb:1.);
  Alcotest.(check bool) "outside" false
    (Bidir.Rate_region.achievable b ~ra:1.3 ~rb:1.3);
  Alcotest.(check bool) "origin" true (Bidir.Rate_region.achievable b ~ra:0. ~rb:0.);
  Alcotest.(check bool) "negative" false
    (Bidir.Rate_region.achievable b ~ra:(-0.1) ~rb:0.)

let test_boundary_on_region () =
  let b = Bidir.Gaussian.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner
      (scen ~power_db:10.) in
  let pts = Bidir.Rate_region.boundary b in
  Alcotest.(check bool) "several vertices" true (List.length pts >= 2);
  List.iter
    (fun (p : Numerics.Vec2.t) ->
      Alcotest.(check bool) "boundary achievable" true
        (Bidir.Rate_region.achievable b ~ra:p.Numerics.Vec2.x
           ~rb:p.Numerics.Vec2.y))
    pts

let test_polygon_convex () =
  List.iter
    (fun p ->
      let b = Bidir.Gaussian.bounds p Bidir.Bound.Inner (scen ~power_db:10.) in
      let poly = Bidir.Rate_region.polygon b in
      Alcotest.(check bool)
        (Bidir.Protocol.name p ^ " polygon convex")
        true
        (Numerics.Hull.is_convex_ccw poly))
    Bidir.Protocol.all

let test_optimum_satisfies_bound () =
  List.iter
    (fun p ->
      let b = Bidir.Gaussian.bounds p Bidir.Bound.Inner (scen ~power_db:10.) in
      let r = Bidir.Rate_region.max_sum_rate b in
      Alcotest.(check bool)
        (Bidir.Protocol.name p ^ " optimum feasible")
        true
        (Bidir.Bound.satisfied b ~deltas:r.Bidir.Rate_region.deltas
           ~ra:r.Bidir.Rate_region.ra ~rb:r.Bidir.Rate_region.rb))
    Bidir.Protocol.all

(* ------------------------------------------------------------------ *)
(* Structural containments from the paper                              *)
(* ------------------------------------------------------------------ *)

let region p kind s = Bidir.Gaussian.bounds p kind s

let test_mabc_capacity_inner_equals_outer () =
  let s = scen ~power_db:10. in
  let inner = region Bidir.Protocol.Mabc Bidir.Bound.Inner s in
  let outer = region Bidir.Protocol.Mabc Bidir.Bound.Outer s in
  Alcotest.(check bool) "inner contains outer" true
    (Bidir.Rate_region.contains_region inner outer);
  Alcotest.(check bool) "outer contains inner" true
    (Bidir.Rate_region.contains_region outer inner)

let test_inner_subset_outer () =
  List.iter
    (fun power_db ->
      let s = scen ~power_db in
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "%s inner in outer at %g dB" (Bidir.Protocol.name p)
               power_db)
            true
            (Bidir.Rate_region.contains_region
               (region p Bidir.Bound.Outer s)
               (region p Bidir.Bound.Inner s)))
        Bidir.Protocol.all)
    [ 0.; 10. ]

let test_hbc_contains_mabc_and_tdbc () =
  (* MABC (d1 = d2 = 0) and TDBC (d3 = 0) are special cases of HBC *)
  List.iter
    (fun power_db ->
      let s = scen ~power_db in
      let hbc = region Bidir.Protocol.Hbc Bidir.Bound.Inner s in
      Alcotest.(check bool) "HBC contains MABC" true
        (Bidir.Rate_region.contains_region hbc
           (region Bidir.Protocol.Mabc Bidir.Bound.Inner s));
      Alcotest.(check bool) "HBC contains TDBC" true
        (Bidir.Rate_region.contains_region hbc
           (region Bidir.Protocol.Tdbc Bidir.Bound.Inner s)))
    [ -5.; 0.; 10.; 20. ]

let test_tdbc_contains_dt () =
  (* with G_ar, G_br >= G_ab, dropping the relay (d3 = 0) reduces TDBC to DT *)
  let s = scen ~power_db:10. in
  Alcotest.(check bool) "TDBC contains DT" true
    (Bidir.Rate_region.contains_region
       (region Bidir.Protocol.Tdbc Bidir.Bound.Inner s)
       (region Bidir.Protocol.Dt Bidir.Bound.Inner s))

let test_relay_free_outer_relaxes () =
  let s = scen ~power_db:10. in
  List.iter
    (fun p ->
      let full = region p Bidir.Bound.Outer s in
      let relaxed = Bidir.Gaussian.relay_free_outer p s in
      Alcotest.(check bool)
        (Bidir.Protocol.name p ^ " relaxed contains full")
        true
        (Bidir.Rate_region.contains_region relaxed full))
    Bidir.Protocol.relayed

let test_sum_rate_monotone_in_power () =
  List.iter
    (fun p ->
      let low = sum_rate p Bidir.Bound.Inner (scen ~power_db:0.) in
      let high = sum_rate p Bidir.Bound.Inner (scen ~power_db:10.) in
      Alcotest.(check bool)
        (Bidir.Protocol.name p ^ " monotone in P")
        true (high > low))
    Bidir.Protocol.all

(* ------------------------------------------------------------------ *)
(* The paper's headline numerical findings                              *)
(* ------------------------------------------------------------------ *)

let test_mabc_beats_tdbc_low_snr () =
  let s = scen ~power_db:0. in
  Alcotest.(check bool) "MABC > TDBC at 0 dB" true
    (sum_rate Bidir.Protocol.Mabc Bidir.Bound.Inner s
     > sum_rate Bidir.Protocol.Tdbc Bidir.Bound.Inner s)

let test_tdbc_beats_mabc_high_snr () =
  let s = scen ~power_db:10. in
  Alcotest.(check bool) "TDBC > MABC at 10 dB" true
    (sum_rate Bidir.Protocol.Tdbc Bidir.Bound.Inner s
     > sum_rate Bidir.Protocol.Mabc Bidir.Bound.Inner s)

let test_region_domination_low_and_high () =
  (* Fig. 4: the MABC region dominates at 0 dB (larger area, larger sum
     rate — TDBC still reaches further along the axes where the direct
     link plus side information carries one-directional traffic), and
     the ordering flips by 10 dB. *)
  let area p s =
    Numerics.Polygon.area
      (Bidir.Rate_region.polygon (region p Bidir.Bound.Inner s))
  in
  let s0 = scen ~power_db:(-5.) in
  Alcotest.(check bool) "-5 dB: MABC area > TDBC area" true
    (area Bidir.Protocol.Mabc s0 > area Bidir.Protocol.Tdbc s0);
  let s10 = scen ~power_db:10. in
  Alcotest.(check bool) "10 dB: TDBC area > MABC area" true
    (area Bidir.Protocol.Tdbc s10 > area Bidir.Protocol.Mabc s10);
  Alcotest.(check bool) "10 dB: TDBC not inside MABC" false
    (Bidir.Rate_region.contains_region
       (region Bidir.Protocol.Mabc Bidir.Bound.Inner s10)
       (region Bidir.Protocol.Tdbc Bidir.Bound.Inner s10))

let test_hbc_strictly_better_somewhere () =
  (* Fig. 3's headline: HBC does not reduce to MABC or TDBC in general *)
  let s = scen ~power_db:0. in
  let hbc = sum_rate Bidir.Protocol.Hbc Bidir.Bound.Inner s in
  let mabc = sum_rate Bidir.Protocol.Mabc Bidir.Bound.Inner s in
  let tdbc = sum_rate Bidir.Protocol.Tdbc Bidir.Bound.Inner s in
  Alcotest.(check bool) "HBC strictly better" true
    (hbc > Float.max mabc tdbc +. 1e-6)

let test_hbc_outside_both_outer_bounds () =
  (* Section IV: some achievable HBC pairs are outside the outer bounds
     of both other protocols *)
  List.iter
    (fun power_db ->
      match Bidir.Optimize.hbc_strict_advantage (scen ~power_db) with
      | Some (ra, rb, margin) ->
        Alcotest.(check bool) "positive rates" true (ra > 0. && rb > 0.);
        Alcotest.(check bool) "positive margin" true (margin > 0.)
      | None ->
        Alcotest.failf "expected an HBC witness at %g dB" power_db)
    [ 0.; 10. ]

let test_crossover_exists () =
  let xs =
    Bidir.Optimize.crossover_powers_db
      (Bidir.Protocol.Mabc, Bidir.Protocol.Tdbc)
      ~gains:paper_gains Bidir.Bound.Inner
  in
  Alcotest.(check bool) "at least one crossover" true (List.length xs >= 1);
  List.iter
    (fun x ->
      Alcotest.(check bool) "in range" true (x > -10. && x < 25.);
      (* verify it is a genuine crossing *)
      let diff power_db =
        let s = scen ~power_db in
        sum_rate Bidir.Protocol.Mabc Bidir.Bound.Inner s
        -. sum_rate Bidir.Protocol.Tdbc Bidir.Bound.Inner s
      in
      Alcotest.(check bool) "sign change" true
        (diff (x -. 0.5) *. diff (x +. 0.5) < 0.))
    xs

let test_best_protocol () =
  let low = Bidir.Optimize.best_protocol Bidir.Bound.Inner (scen ~power_db:(-5.)) in
  Alcotest.(check bool) "low SNR winner is MABC or HBC" true
    (low.Bidir.Optimize.protocol = Bidir.Protocol.Mabc
     || low.Bidir.Optimize.protocol = Bidir.Protocol.Hbc);
  let high = Bidir.Optimize.best_protocol Bidir.Bound.Inner (scen ~power_db:15.) in
  Alcotest.(check bool) "high SNR winner is TDBC or HBC" true
    (high.Bidir.Optimize.protocol = Bidir.Protocol.Tdbc
     || high.Bidir.Optimize.protocol = Bidir.Protocol.Hbc)

let test_symmetry_swap () =
  (* swapping the terminals mirrors the region across the diagonal *)
  let s = scen ~power_db:10. in
  let swapped =
    Bidir.Gaussian.scenario ~power_db:10.
      ~gains:(Channel.Gains.swap_terminals paper_gains)
  in
  List.iter
    (fun p ->
      let r = Bidir.Rate_region.max_ra (region p Bidir.Bound.Inner s) in
      let r' =
        Bidir.Rate_region.max_rb
          (Bidir.Gaussian.bounds p Bidir.Bound.Inner swapped)
      in
      check_float ~eps:1e-6
        (Bidir.Protocol.name p ^ " swap symmetry")
        r.Bidir.Rate_region.ra r'.Bidir.Rate_region.rb)
    Bidir.Protocol.all

(* ------------------------------------------------------------------ *)
(* Discrete evaluation                                                 *)
(* ------------------------------------------------------------------ *)

let test_discrete_noiseless () =
  let net = Bidir.Discrete.bsc_network ~p_ab:0. ~p_ar:0. ~p_br:0. ~p_mac:0. in
  let ins = Bidir.Discrete.uniform_inputs net in
  (* TDBC with all unit-capacity links: sum rate 1 (d1 = d2 = 1/2) *)
  let tdbc = Bidir.Discrete.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner net ins in
  check_float "tdbc noiseless sum" 1.
    (Bidir.Rate_region.sum (Bidir.Rate_region.max_sum_rate tdbc));
  (* MABC through the XOR MAC: relay gets 1 bit/use of the pair; sum
     constraint R <= d1, individual broadcast R <= d2 each: optimum 2/3 *)
  let mabc = Bidir.Discrete.bounds Bidir.Protocol.Mabc Bidir.Bound.Inner net ins in
  check_float ~eps:1e-6 "mabc noiseless sum" (2. /. 3.)
    (Bidir.Rate_region.sum (Bidir.Rate_region.max_sum_rate mabc))

let test_discrete_noise_hurts () =
  let ins net = Bidir.Discrete.uniform_inputs net in
  let sum p_noise =
    let net =
      Bidir.Discrete.bsc_network ~p_ab:p_noise ~p_ar:p_noise ~p_br:p_noise
        ~p_mac:p_noise
    in
    Bidir.Rate_region.sum
      (Bidir.Rate_region.max_sum_rate
         (Bidir.Discrete.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner net
            (ins net)))
  in
  Alcotest.(check bool) "monotone in noise" true
    (sum 0.01 > sum 0.05 && sum 0.05 > sum 0.2)

let test_discrete_mi_values_sane () =
  let net = Bidir.Discrete.bsc_network ~p_ab:0.2 ~p_ar:0.05 ~p_br:0.05 ~p_mac:0.1 in
  let m = Bidir.Discrete.mi_values net (Bidir.Discrete.uniform_inputs net) in
  check_float ~eps:1e-9 "ab = 1 - H(0.2)"
    (1. -. Infotheory.Info.binary_entropy 0.2) m.Bidir.Templates.ab;
  check_float ~eps:1e-9 "mac_sum = 1 - H(0.1)"
    (1. -. Infotheory.Info.binary_entropy 0.1) m.Bidir.Templates.mac_sum;
  Alcotest.(check bool) "joint observation helps" true
    (m.Bidir.Templates.a_rb > m.Bidir.Templates.ar)

let test_discrete_optimized_inputs () =
  let net = Bidir.Discrete.bsc_network ~p_ab:0.3 ~p_ar:0.1 ~p_br:0.05 ~p_mac:0.1 in
  let uniform_sum =
    Bidir.Rate_region.sum
      (Bidir.Rate_region.max_sum_rate
         (Bidir.Discrete.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner net
            (Bidir.Discrete.uniform_inputs net)))
  in
  let best, _ =
    Bidir.Discrete.max_sum_rate_binary ~grid:7 Bidir.Protocol.Tdbc
      Bidir.Bound.Inner net
  in
  Alcotest.(check bool) "optimised >= uniform" true (best >= uniform_sum -. 1e-9)

let test_discrete_alphabet_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Discrete.make: MAC alphabets do not match the links")
    (fun () ->
      ignore
        (Bidir.Discrete.make
           ~ch_ab:(Infotheory.Channels.bsc 0.1)
           ~ch_ar:(Infotheory.Channels.bsc 0.1)
           ~ch_br:(Infotheory.Channels.bsc 0.1)
           ~mac_r:
             (Infotheory.Mac.create
                (Array.init 3 (fun _ ->
                     Array.init 2 (fun _ -> [| 0.5; 0.5 |]))))))

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let test_fig3_shape () =
  let f = Bidir.Figures.fig3 ~samples:9 () in
  Alcotest.(check int) "five series" 5 (List.length f.Bidir.Figures.series);
  List.iter
    (fun s ->
      Alcotest.(check int) "nine points" 9
        (List.length s.Bidir.Figures.points))
    f.Bidir.Figures.series;
  (* HBC >= max(MABC, TDBC) pointwise *)
  let by_label l =
    List.find (fun s -> s.Bidir.Figures.label = l) f.Bidir.Figures.series
  in
  let hbc = (by_label "HBC").Bidir.Figures.points in
  let mabc = (by_label "MABC").Bidir.Figures.points in
  let tdbc = (by_label "TDBC").Bidir.Figures.points in
  List.iteri
    (fun i (_, h) ->
      let _, m = List.nth mabc i and _, t = List.nth tdbc i in
      Alcotest.(check bool) "HBC dominates" true (h >= Float.max m t -. 1e-9))
    hbc

let test_fig4_regions_nonempty () =
  let f = Bidir.Figures.fig4 ~power_db:10. () in
  Alcotest.(check int) "six series" 6 (List.length f.Bidir.Figures.series);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Bidir.Figures.label ^ " non-empty")
        true
        (List.length s.Bidir.Figures.points >= 1))
    f.Bidir.Figures.series

let test_gap_table_small_gaps () =
  let t = Bidir.Figures.gap_table () in
  Alcotest.(check int) "rows" 8 (List.length t.Bidir.Figures.rows);
  (* parse the inner/outer columns and confirm inner <= outer *)
  List.iter
    (fun row ->
      match row with
      | [ _; _; inner; outer; _ ] ->
        Alcotest.(check bool) "inner <= outer" true
          (float_of_string inner <= float_of_string outer +. 1e-9)
      | _ -> Alcotest.fail "unexpected row shape")
    t.Bidir.Figures.rows

let test_crossover_table () =
  let t = Bidir.Figures.crossover_table () in
  Alcotest.(check int) "rows" 4 (List.length t.Bidir.Figures.rows);
  match t.Bidir.Figures.rows with
  | (_ :: mabc_tdbc :: _) :: _ ->
    Alcotest.(check bool) "MABC/TDBC crossover found" true
      (mabc_tdbc <> "none in [-10, 25] dB")
  | _ -> Alcotest.fail "unexpected table shape"

let test_discrete_table () =
  let t = Bidir.Figures.discrete_table ~p_range:[ 0.05 ] () in
  Alcotest.(check int) "four relay protocols" 4 (List.length t.Bidir.Figures.rows)

(* ------------------------------------------------------------------ *)
(* The naive four-phase routing baseline (Fig. 1(ii))                  *)
(* ------------------------------------------------------------------ *)

let test_naive_hand_check () =
  (* unit-capacity hops: Ra <= min(d1, d2), Rb <= min(d3, d4):
     sum rate 1/2 at the uniform split *)
  let mi =
    { Bidir.Templates.ab = 0.2;
      ba = 0.2;
      ar = 1.;
      br = 1.;
      ra = 1.;
      rb = 1.;
      mac_a = 1.;
      mac_b = 1.;
      mac_sum = 1.;
      a_rb = 1.1;
      b_ra = 1.1;
    }
  in
  let b = Bidir.Templates.naive mi in
  check_float ~eps:1e-6 "sum 1/2" 0.5
    (Bidir.Rate_region.sum (Bidir.Rate_region.max_sum_rate b))

let test_coded_beats_naive () =
  (* MABC merges the two uplinks into a MAC and the two downlinks into
     one XOR broadcast: it must dominate the routing strawman *)
  List.iter
    (fun power_db ->
      let s = scen ~power_db in
      let naive = sum_rate Bidir.Protocol.Naive Bidir.Bound.Inner s in
      Alcotest.(check bool) "MABC > NAIVE" true
        (sum_rate Bidir.Protocol.Mabc Bidir.Bound.Inner s > naive);
      Alcotest.(check bool) "TDBC > NAIVE" true
        (sum_rate Bidir.Protocol.Tdbc Bidir.Bound.Inner s > naive))
    [ -5.; 0.; 10.; 20. ]

let test_naive_beats_dt_when_direct_link_weak () =
  (* the classic case for relaying: a deep shadow on the direct link *)
  let gains = Channel.Gains.of_db ~g_ab:(-15.) ~g_ar:5. ~g_br:7. in
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains in
  Alcotest.(check bool) "NAIVE > DT under shadowing" true
    (sum_rate Bidir.Protocol.Naive Bidir.Bound.Inner s
     > sum_rate Bidir.Protocol.Dt Bidir.Bound.Inner s);
  (* ... and the opposite at the paper's strong direct link *)
  let s' = scen ~power_db:10. in
  Alcotest.(check bool) "DT > NAIVE at Fig. 4 gains" true
    (sum_rate Bidir.Protocol.Dt Bidir.Bound.Inner s'
     > sum_rate Bidir.Protocol.Naive Bidir.Bound.Inner s')

let test_coding_gain_table_shape () =
  let t = Bidir.Figures.coding_gain_table ~powers_db:[ 0.; 10. ] () in
  Alcotest.(check int) "two rows" 2 (List.length t.Bidir.Figures.rows);
  List.iter
    (fun row ->
      match row with
      | [ _; _; naive; best; _ ] ->
        Alcotest.(check bool) "coded beats naive" true
          (float_of_string best > float_of_string naive)
      | _ -> Alcotest.fail "unexpected row shape")
    t.Bidir.Figures.rows

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let scenario_gen =
  (* random valid scenario honouring the paper's gain ordering *)
  QCheck.(
    map
      (fun ((p_db, ab_db), (d_ar, d_br)) ->
        let ar_db = ab_db +. d_ar in
        let br_db = ar_db +. d_br in
        Bidir.Gaussian.scenario ~power_db:p_db
          ~gains:(Channel.Gains.of_db ~g_ab:ab_db ~g_ar:ar_db ~g_br:br_db))
      (pair
         (pair (float_range (-10.) 20.) (float_range (-5.) 5.))
         (pair (float_range 0. 10.) (float_range 0. 10.))))

let prop_hbc_dominates =
  QCheck.Test.make ~count:60 ~name:"HBC sum rate >= MABC and TDBC" scenario_gen
    (fun s ->
      let h = sum_rate Bidir.Protocol.Hbc Bidir.Bound.Inner s in
      h >= sum_rate Bidir.Protocol.Mabc Bidir.Bound.Inner s -. 1e-7
      && h >= sum_rate Bidir.Protocol.Tdbc Bidir.Bound.Inner s -. 1e-7)

let prop_inner_le_outer =
  QCheck.Test.make ~count:60 ~name:"inner sum rate <= outer sum rate"
    scenario_gen (fun s ->
      List.for_all
        (fun p ->
          sum_rate p Bidir.Bound.Inner s
          <= sum_rate p Bidir.Bound.Outer s +. 1e-7)
        Bidir.Protocol.all)

let prop_deltas_simplex =
  QCheck.Test.make ~count:60 ~name:"optimal durations lie on the simplex"
    scenario_gen (fun s ->
      List.for_all
        (fun p ->
          let r = Bidir.Optimize.sum_rate p Bidir.Bound.Inner s in
          let total = Numerics.Float_utils.sum r.Bidir.Optimize.deltas in
          abs_float (total -. 1.) < 1e-6
          && Array.for_all (fun d -> d >= -1e-9) r.Bidir.Optimize.deltas)
        Bidir.Protocol.all)

let prop_sum_consistent =
  QCheck.Test.make ~count:60 ~name:"sum_rate = ra + rb" scenario_gen (fun s ->
      List.for_all
        (fun p ->
          let r = Bidir.Optimize.sum_rate p Bidir.Bound.Inner s in
          abs_float
            (r.Bidir.Optimize.sum_rate
             -. (r.Bidir.Optimize.ra +. r.Bidir.Optimize.rb))
          < 1e-9)
        Bidir.Protocol.all)

let prop_region_scales_down =
  QCheck.Test.make ~count:40 ~name:"scaled-down optimum stays achievable"
    QCheck.(pair scenario_gen (float_range 0.1 0.95))
    (fun (s, k) ->
      List.for_all
        (fun p ->
          let b = Bidir.Gaussian.bounds p Bidir.Bound.Inner s in
          let r = Bidir.Rate_region.max_sum_rate b in
          Bidir.Rate_region.achievable b
            ~ra:(k *. r.Bidir.Rate_region.ra)
            ~rb:(k *. r.Bidir.Rate_region.rb))
        Bidir.Protocol.all)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_hbc_dominates;
      prop_inner_le_outer;
      prop_deltas_simplex;
      prop_sum_consistent;
      prop_region_scales_down;
    ]

let suites =
  [ ( "bidir.protocol",
      [ Alcotest.test_case "names" `Quick test_protocol_names;
        Alcotest.test_case "phases" `Quick test_protocol_phases;
      ] );
    ( "bidir.bound",
      [ Alcotest.test_case "validation" `Quick test_bound_validation;
        Alcotest.test_case "satisfied" `Quick test_bound_satisfied;
      ] );
    ( "bidir.gaussian",
      [ Alcotest.test_case "link rates" `Quick test_link_rates_values;
        Alcotest.test_case "dB vs linear" `Quick test_scenario_db_vs_lin;
      ] );
    ( "bidir.rate_region",
      [ Alcotest.test_case "hand MABC sum rate" `Quick test_hand_mabc_sum_rate;
        Alcotest.test_case "hand DT region" `Quick test_hand_dt_region;
        Alcotest.test_case "achievable probe" `Quick test_achievable_probe;
        Alcotest.test_case "boundary points achievable" `Quick test_boundary_on_region;
        Alcotest.test_case "polygons convex" `Quick test_polygon_convex;
        Alcotest.test_case "optimum satisfies bound" `Quick test_optimum_satisfies_bound;
      ] );
    ( "bidir.containments",
      [ Alcotest.test_case "MABC capacity (Thm 2)" `Quick test_mabc_capacity_inner_equals_outer;
        Alcotest.test_case "inner in outer" `Quick test_inner_subset_outer;
        Alcotest.test_case "HBC contains MABC, TDBC" `Quick test_hbc_contains_mabc_and_tdbc;
        Alcotest.test_case "TDBC contains DT" `Quick test_tdbc_contains_dt;
        Alcotest.test_case "relay-free outer relaxes" `Quick test_relay_free_outer_relaxes;
        Alcotest.test_case "monotone in power" `Quick test_sum_rate_monotone_in_power;
      ] );
    ( "bidir.paper_findings",
      [ Alcotest.test_case "MABC wins low SNR" `Quick test_mabc_beats_tdbc_low_snr;
        Alcotest.test_case "TDBC wins high SNR" `Quick test_tdbc_beats_mabc_high_snr;
        Alcotest.test_case "region domination flips" `Quick test_region_domination_low_and_high;
        Alcotest.test_case "HBC strictly better" `Quick test_hbc_strictly_better_somewhere;
        Alcotest.test_case "HBC outside both outers" `Quick test_hbc_outside_both_outer_bounds;
        Alcotest.test_case "crossover exists" `Quick test_crossover_exists;
        Alcotest.test_case "best protocol" `Quick test_best_protocol;
        Alcotest.test_case "terminal swap symmetry" `Quick test_symmetry_swap;
      ] );
    ( "bidir.naive",
      [ Alcotest.test_case "hand check" `Quick test_naive_hand_check;
        Alcotest.test_case "coded beats naive" `Quick test_coded_beats_naive;
        Alcotest.test_case "naive vs DT" `Quick test_naive_beats_dt_when_direct_link_weak;
        Alcotest.test_case "coding gain table" `Quick test_coding_gain_table_shape;
      ] );
    ( "bidir.discrete",
      [ Alcotest.test_case "noiseless" `Quick test_discrete_noiseless;
        Alcotest.test_case "noise hurts" `Quick test_discrete_noise_hurts;
        Alcotest.test_case "MI values" `Quick test_discrete_mi_values_sane;
        Alcotest.test_case "optimised inputs" `Slow test_discrete_optimized_inputs;
        Alcotest.test_case "alphabet mismatch" `Quick test_discrete_alphabet_mismatch;
      ] );
    ( "bidir.figures",
      [ Alcotest.test_case "fig3 shape" `Quick test_fig3_shape;
        Alcotest.test_case "fig4 regions" `Quick test_fig4_regions_nonempty;
        Alcotest.test_case "gap table" `Quick test_gap_table_small_gaps;
        Alcotest.test_case "crossover table" `Quick test_crossover_table;
        Alcotest.test_case "discrete table" `Quick test_discrete_table;
      ] );
    ("bidir.properties", qcheck_cases);
  ]

let test_binding_terms () =
  (* the sum-rate optimum always sits on at least one constraint, and
     for MABC at the paper gains the relay-decoding MAC cut binds *)
  let s = scen ~power_db:10. in
  List.iter
    (fun p ->
      let b = Bidir.Gaussian.bounds p Bidir.Bound.Inner s in
      let r = Bidir.Rate_region.max_sum_rate b in
      let binding = Bidir.Rate_region.binding_terms ~eps:1e-6 b r in
      Alcotest.(check bool)
        (Bidir.Protocol.name p ^ " optimum on boundary")
        true
        (List.length binding >= 1))
    Bidir.Protocol.all;
  let b = Bidir.Gaussian.bounds Bidir.Protocol.Mabc Bidir.Bound.Inner s in
  let r = Bidir.Rate_region.max_sum_rate b in
  let labels =
    List.map
      (fun (t : Bidir.Bound.term) -> t.Bidir.Bound.label)
      (Bidir.Rate_region.binding_terms ~eps:1e-6 b r)
  in
  Alcotest.(check bool) "MABC: relay MAC cut binds" true
    (List.mem "S4: relay decodes both" labels)


let suites =
  suites
  @ [ ("bidir.binding",
       [ Alcotest.test_case "binding terms" `Quick test_binding_terms ])
    ]

let test_boundary_with_schedules () =
  let s = scen ~power_db:10. in
  let b = Bidir.Gaussian.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner s in
  let frontier = Bidir.Rate_region.boundary_with_schedules b in
  Alcotest.(check bool) "several points" true (List.length frontier >= 2);
  List.iter
    (fun (r : Bidir.Rate_region.opt_result) ->
      (* every schedule lives on the simplex and supports its rates *)
      Alcotest.(check bool) "simplex" true
        (abs_float (Numerics.Float_utils.sum r.Bidir.Rate_region.deltas -. 1.)
         < 1e-6);
      Alcotest.(check bool) "feasible at its own schedule" true
        (Bidir.Bound.satisfied b ~deltas:r.Bidir.Rate_region.deltas
           ~ra:r.Bidir.Rate_region.ra ~rb:r.Bidir.Rate_region.rb))
    frontier;
  (* ordered by Ra *)
  let ras = List.map (fun r -> r.Bidir.Rate_region.ra) frontier in
  Alcotest.(check bool) "sorted" true (List.sort compare ras = ras)

let test_bec_network () =
  (* BEC(e) capacity is 1 - e: the TDBC sum rate on a symmetric erasure
     network matches the closed form, as in the BSC test *)
  let e = 0.2 in
  let net = Bidir.Discrete.bec_network ~e_ab:e ~e_ar:e ~e_br:e ~e_mac:e in
  let b =
    Bidir.Discrete.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner net
      (Bidir.Discrete.uniform_inputs net)
  in
  Alcotest.(check (float 1e-6)) "sum = 1 - e" (1. -. e)
    (Bidir.Rate_region.sum (Bidir.Rate_region.max_sum_rate b))

let test_quaternary_network () =
  let net = Bidir.Discrete.quaternary_network ~p:0.05 in
  let ins = Bidir.Discrete.uniform_inputs net in
  let sum p =
    Bidir.Rate_region.sum
      (Bidir.Rate_region.max_sum_rate
         (Bidir.Discrete.bounds p Bidir.Bound.Inner net ins))
  in
  (* 4-ary links carry up to 2 bits/use; rates land between 1 and 2 and
     respect the usual protocol ordering *)
  Alcotest.(check bool) "TDBC in (1, 2)" true (sum Bidir.Protocol.Tdbc > 1. && sum Bidir.Protocol.Tdbc < 2.);
  Alcotest.(check bool) "HBC >= TDBC" true
    (sum Bidir.Protocol.Hbc >= sum Bidir.Protocol.Tdbc -. 1e-9);
  Alcotest.(check bool) "HBC >= MABC" true
    (sum Bidir.Protocol.Hbc >= sum Bidir.Protocol.Mabc -. 1e-9)

let suites =
  suites
  @ [ ( "bidir.more_regions",
        [ Alcotest.test_case "boundary with schedules" `Quick
            test_boundary_with_schedules;
          Alcotest.test_case "bec network" `Quick test_bec_network;
          Alcotest.test_case "quaternary network" `Quick test_quaternary_network;
        ] )
    ]
