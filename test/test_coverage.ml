(* Coverage sweep: small behaviours of the public API not exercised by
   the main suites — pretty-printers, edge cases, reference vectors. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

(* ------------------------------------------------------------------ *)
(* Numerics odds and ends                                              *)
(* ------------------------------------------------------------------ *)

let test_histogram_single_value () =
  let h = Numerics.Stats.histogram ~bins:4 [| 2.; 2.; 2. |] in
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all binned despite zero range" 3 total

let test_vec2_pp () =
  Alcotest.(check string) "pp" "(1.5, -2)"
    (Format.asprintf "%a" Numerics.Vec2.pp (Numerics.Vec2.make 1.5 (-2.)))

let test_root_zero_endpoint () =
  check_float "f(lo) = 0 returns lo" 2.
    (Numerics.Root.bisect ~f:(fun x -> x -. 2.) 2. 5.);
  check_float "brent hits endpoint" 5.
    (Numerics.Root.brent ~f:(fun x -> x -. 5.) 2. 5.)

(* ------------------------------------------------------------------ *)
(* Linprog details                                                     *)
(* ------------------------------------------------------------------ *)

let test_simplex_ge_only () =
  (* min x s.t. x >= 3, solved as max -x *)
  let solver =
    Linprog.Solver.create ~nvars:1
      ~constrs:[ Linprog.Solver.constr [| 1. |] Linprog.Solver.Ge 3. ]
  in
  let x = Array.make 2 0. in
  match Linprog.Solver.reoptimize_into solver ~c:[| -1. |] ~x with
  | Linprog.Solver.Optimal -> check_float ~eps:1e-9 "min at bound" (-3.) x.(1)
  | _ -> Alcotest.fail "expected optimal"

(* ------------------------------------------------------------------ *)
(* Infotheory odds and ends                                            *)
(* ------------------------------------------------------------------ *)

let test_pmf_pp () =
  let out = Format.asprintf "%a" Infotheory.Pmf.pp (Infotheory.Pmf.binary 0.25) in
  Alcotest.(check bool) "shows probabilities" true
    (contains ~needle:"0.7500" out && contains ~needle:"0.2500" out)

let test_z_channel_matrix () =
  (* Z-channel: 0 is received perfectly, 1 flips to 0 w.p. 0.3 *)
  let z = Infotheory.Dmc.create [| [| 1.; 0. |]; [| 0.3; 0.7 |] |] in
  check_float "0 stays 0" 1. (Infotheory.Dmc.transition z 0 0);
  check_float "1 flips w.p. 0.3" 0.3 (Infotheory.Dmc.transition z 1 0);
  (* matrix returns a copy: mutating it must not affect the channel *)
  let m = Infotheory.Dmc.matrix z in
  m.(0).(0) <- 0.;
  check_float "defensive copy" 1. (Infotheory.Dmc.transition z 0 0)

let test_mac_adder_of_dmc_pair () =
  (* deterministic AND-combining through a noiseless channel *)
  let mac =
    Infotheory.Mac.of_dmc_pair ~combine:(fun a b -> a land b)
      (Infotheory.Dmc.create [| [| 1.; 0. |]; [| 0.; 1. |] |])
  in
  let u = Infotheory.Pmf.uniform 2 in
  let t = Infotheory.Mac.rate_terms mac u u in
  (* Y = X1 AND X2: I(X1,X2;Y) = H(Y) = H(1/4) *)
  check_float ~eps:1e-9 "joint = H(1/4)"
    (Infotheory.Info.binary_entropy 0.25)
    t.Infotheory.Mac.i_joint

(* ------------------------------------------------------------------ *)
(* Prob / Channel                                                      *)
(* ------------------------------------------------------------------ *)

let test_rng_float_range () =
  let rng = Prob.Rng.create ~seed:99 in
  for _ = 1 to 200 do
    let x = Prob.Rng.float_range rng ~lo:2. ~hi:5. in
    Alcotest.(check bool) "in range" true (x >= 2. && x < 5.)
  done

let test_awgn_c_inv_invalid () =
  Alcotest.check_raises "negative rate"
    (Invalid_argument "Awgn.c_inv: negative rate") (fun () ->
      ignore (Channel.Awgn.c_inv (-1.)))

let test_fading_mean_accessor () =
  let g = Channel.Gains.paper_fig4 in
  let f = Channel.Fading.create ~mean:g () in
  Alcotest.(check (float 0.)) "mean preserved" g.Channel.Gains.g_ar
    (Channel.Fading.mean f).Channel.Gains.g_ar

let test_pathloss_gains_at_vertical () =
  (* relay directly above the midpoint: symmetric relay links *)
  let pl = Channel.Pathloss.make ~exponent:2. () in
  let g = Channel.Pathloss.gains_at pl ~relay_xy:(0.5, 0.5) in
  check_float ~eps:1e-12 "symmetric" g.Channel.Gains.g_ar g.Channel.Gains.g_br

(* ------------------------------------------------------------------ *)
(* Coding reference vectors                                            *)
(* ------------------------------------------------------------------ *)

let test_crc32_check_value () =
  (* the standard CRC-32 check: crc32("123456789") = 0xCBF43926,
     bytes fed LSB-first as the reflected algorithm specifies *)
  let s = "123456789" in
  let bits = Coding.Bitvec.create (8 * String.length s) in
  String.iteri
    (fun i c ->
      let b = Char.code c in
      for j = 0 to 7 do
        if (b lsr j) land 1 = 1 then Coding.Bitvec.set bits ((8 * i) + j) true
      done)
    s;
  Alcotest.(check int32) "check value" 0xCBF43926l (Coding.Crc.crc32 bits)

let test_bitvec_of_int_invalid () =
  Alcotest.check_raises "negative" (Invalid_argument "Bitvec.of_int: negative")
    (fun () -> ignore (Coding.Bitvec.of_int ~width:4 (-1)));
  Alcotest.check_raises "sub oob" (Invalid_argument "Bitvec.sub: out of bounds")
    (fun () -> ignore (Coding.Bitvec.sub (Coding.Bitvec.create 4) ~pos:2 ~len:3))

(* ------------------------------------------------------------------ *)
(* Netsim / Bidir surfaces                                             *)
(* ------------------------------------------------------------------ *)

let test_node_names () =
  Alcotest.(check (list string)) "names" [ "a"; "b"; "r" ]
    (List.map Netsim.Packet.node_name [ Netsim.Packet.A; Netsim.Packet.B; Netsim.Packet.R ])

let test_engine_step () =
  let e = Netsim.Engine.create () in
  let hits = ref 0 in
  Netsim.Engine.schedule_at e ~time:1. (fun () -> incr hits);
  Netsim.Engine.schedule_at e ~time:2. (fun () -> incr hits);
  Alcotest.(check bool) "first step" true (Netsim.Engine.step e);
  Alcotest.(check int) "one fired" 1 !hits;
  Alcotest.(check bool) "second step" true (Netsim.Engine.step e);
  Alcotest.(check bool) "exhausted" false (Netsim.Engine.step e)

let test_metrics_pp () =
  let m = Netsim.Metrics.create () in
  Netsim.Metrics.record_block m ~symbols:100 ~bits_a:10 ~bits_b:10
    ~delivered_a:true ~delivered_b:true;
  let out = Format.asprintf "%a" Netsim.Metrics.pp m in
  Alcotest.(check bool) "mentions throughput" true (contains ~needle:"throughput" out)

let test_bound_pp () =
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:Channel.Gains.paper_fig4 in
  let b = Bidir.Gaussian.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner s in
  let out = Format.asprintf "%a" Bidir.Bound.pp b in
  Alcotest.(check bool) "header" true (contains ~needle:"TDBC inner bound" out);
  Alcotest.(check bool) "labels" true (contains ~needle:"side info" out);
  Alcotest.(check bool) "durations" true (contains ~needle:"d3" out)

let test_phase_descriptions_complete () =
  List.iter
    (fun p ->
      for l = 1 to Bidir.Protocol.num_phases p do
        Alcotest.(check bool)
          (Printf.sprintf "%s phase %d described" (Bidir.Protocol.name p) l)
          true
          (String.length (Bidir.Protocol.phase_description p l) > 0)
      done)
    Bidir.Protocol.all

let test_relay_free_outer_drops_sum () =
  let s = Bidir.Gaussian.scenario ~power_db:10. ~gains:Channel.Gains.paper_fig4 in
  List.iter
    (fun p ->
      let full = Bidir.Gaussian.bounds p Bidir.Bound.Outer s in
      let relaxed = Bidir.Gaussian.relay_free_outer p s in
      let sums (b : Bidir.Bound.t) =
        List.length
          (List.filter
             (fun (t : Bidir.Bound.term) -> t.Bidir.Bound.ca > 0. && t.Bidir.Bound.cb > 0.)
             b.Bidir.Bound.terms)
      in
      Alcotest.(check int)
        (Bidir.Protocol.name p ^ " no sum terms left")
        0 (sums relaxed);
      Alcotest.(check bool) "fewer or equal terms" true
        (List.length relaxed.Bidir.Bound.terms <= List.length full.Bidir.Bound.terms))
    Bidir.Protocol.relayed

let test_runner_phase_attribution () =
  (* force a phase-1 (relay) outage for MABC: rates far above capacity *)
  let gains = Channel.Gains.paper_fig4 in
  let cfg =
    { (Netsim.Runner.default_config ~protocol:Bidir.Protocol.Mabc ~power_db:0.
         ~gains ~blocks:5 ~block_symbols:500 ())
      with
      Netsim.Runner.mode =
        Netsim.Runner.Fixed { deltas = [| 0.5; 0.5 |]; ra = 5.; rb = 5. };
    }
  in
  let r = Netsim.Runner.run cfg in
  (match Netsim.Metrics.phase_outages r.Netsim.Runner.metrics with
  | [ (1, 5) ] -> ()
  | other ->
    Alcotest.failf "expected 5 phase-1 outages, got %s"
      (String.concat ", "
         (List.map (fun (p, c) -> Printf.sprintf "ph%d:%d" p c) other)))

let suites =
  [ ( "coverage.numerics",
      [ Alcotest.test_case "histogram single value" `Quick test_histogram_single_value;
        Alcotest.test_case "vec2 pp" `Quick test_vec2_pp;
        Alcotest.test_case "root zero endpoints" `Quick test_root_zero_endpoint;
      ] );
    ( "coverage.linprog",
      [ Alcotest.test_case "ge-only system" `Quick test_simplex_ge_only;
      ] );
    ( "coverage.infotheory",
      [ Alcotest.test_case "pmf pp" `Quick test_pmf_pp;
        Alcotest.test_case "z channel" `Quick test_z_channel_matrix;
        Alcotest.test_case "AND mac" `Quick test_mac_adder_of_dmc_pair;
      ] );
    ( "coverage.prob_channel",
      [ Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "c_inv invalid" `Quick test_awgn_c_inv_invalid;
        Alcotest.test_case "fading mean" `Quick test_fading_mean_accessor;
        Alcotest.test_case "planar symmetric" `Quick test_pathloss_gains_at_vertical;
      ] );
    ( "coverage.coding",
      [ Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
        Alcotest.test_case "bitvec invalid" `Quick test_bitvec_of_int_invalid;
      ] );
    ( "coverage.netsim_bidir",
      [ Alcotest.test_case "node names" `Quick test_node_names;
        Alcotest.test_case "engine step" `Quick test_engine_step;
        Alcotest.test_case "metrics pp" `Quick test_metrics_pp;
        Alcotest.test_case "bound pp" `Quick test_bound_pp;
        Alcotest.test_case "phase descriptions" `Quick test_phase_descriptions_complete;
        Alcotest.test_case "relay-free outer" `Quick test_relay_free_outer_drops_sum;
        Alcotest.test_case "phase attribution" `Quick test_runner_phase_attribution;
      ] );
  ]
