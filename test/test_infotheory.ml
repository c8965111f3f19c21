(* Tests for the discrete information-theory library. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Pmf                                                                 *)
(* ------------------------------------------------------------------ *)

let test_pmf_uniform () =
  let p = Infotheory.Pmf.uniform 4 in
  check_float "prob" 0.25 (Infotheory.Pmf.prob p 2);
  check_float "entropy" 2. (Infotheory.Pmf.entropy p)

let test_pmf_deterministic () =
  let p = Infotheory.Pmf.deterministic ~size:5 3 in
  check_float "point mass" 1. (Infotheory.Pmf.prob p 3);
  check_float "entropy zero" 0. (Infotheory.Pmf.entropy p)

let test_pmf_binary () =
  let p = Infotheory.Pmf.binary 0.3 in
  check_float "p0" 0.7 (Infotheory.Pmf.prob p 0);
  check_float "p1" 0.3 (Infotheory.Pmf.prob p 1)

let test_pmf_invalid () =
  Alcotest.check_raises "bad sum"
    (Invalid_argument "Pmf.of_array: probabilities do not sum to 1")
    (fun () -> ignore (Infotheory.Pmf.of_array [| 0.5; 0.4 |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Pmf.of_weights: negative weight") (fun () ->
      ignore (Infotheory.Pmf.of_weights [| -0.1; 1.1 |]))

let test_pmf_product () =
  let p = Infotheory.Pmf.binary 0.5 in
  let q = Infotheory.Pmf.binary 0.25 in
  let j = Infotheory.Pmf.product p q in
  Alcotest.(check int) "size" 4 (Infotheory.Pmf.size j);
  check_float "p(0,1)" 0.125 (Infotheory.Pmf.prob j 1);
  check_float "entropy adds" (Infotheory.Pmf.entropy p +. Infotheory.Pmf.entropy q)
    (Infotheory.Pmf.entropy j)

let test_pmf_expected () =
  let p = Infotheory.Pmf.of_array [| 0.5; 0.5 |] in
  check_float "expectation" 0.5 (Infotheory.Pmf.expected p float_of_int)

let test_tv_distance () =
  let p = Infotheory.Pmf.binary 0. and q = Infotheory.Pmf.binary 1. in
  check_float "disjoint" 1. (Infotheory.Pmf.tv_distance p q);
  check_float "self" 0. (Infotheory.Pmf.tv_distance p p)

(* ------------------------------------------------------------------ *)
(* Info                                                                *)
(* ------------------------------------------------------------------ *)

let test_binary_entropy () =
  check_float "H(0.5)" 1. (Infotheory.Info.binary_entropy 0.5);
  check_float "H(0)" 0. (Infotheory.Info.binary_entropy 0.);
  check_float "H(1)" 0. (Infotheory.Info.binary_entropy 1.);
  check_float ~eps:1e-6 "H(0.11)" 0.4999157 (Infotheory.Info.binary_entropy 0.11)

let test_kl () =
  let p = Infotheory.Pmf.binary 0.5 and q = Infotheory.Pmf.binary 0.25 in
  (* D(p||q) = 0.5 log(0.5/0.75) + 0.5 log(0.5/0.25) *)
  let expected = (0.5 *. Numerics.Float_utils.log2 (0.5 /. 0.75))
                 +. (0.5 *. Numerics.Float_utils.log2 (0.5 /. 0.25)) in
  check_float "kl" expected (Infotheory.Info.kl_divergence p q);
  check_float "kl self" 0. (Infotheory.Info.kl_divergence p p);
  Alcotest.(check bool) "kl infinite" true
    (Float.is_integer (Infotheory.Info.kl_divergence (Infotheory.Pmf.binary 1.)
                         (Infotheory.Pmf.binary 0.)) = false
     || Infotheory.Info.kl_divergence (Infotheory.Pmf.binary 1.)
          (Infotheory.Pmf.binary 0.) = infinity)

let test_mutual_information_independent () =
  (* independent joint: I = 0 *)
  let j = [| [| 0.25; 0.25 |]; [| 0.25; 0.25 |] |] in
  check_float "independent" 0. (Infotheory.Info.mutual_information j)

let test_mutual_information_perfect () =
  (* Y = X uniform: I = 1 bit *)
  let j = [| [| 0.5; 0. |]; [| 0.; 0.5 |] |] in
  check_float "perfect" 1. (Infotheory.Info.mutual_information j)

let test_marginals () =
  let j = [| [| 0.1; 0.2 |]; [| 0.3; 0.4 |] |] in
  Infotheory.Info.validate_joint j;
  let mx = Infotheory.Info.marginal_x j in
  let my = Infotheory.Info.marginal_y j in
  check_float ~eps:1e-12 "mx0" 0.3 mx.(0);
  check_float ~eps:1e-12 "my0" 0.4 my.(0);
  check_float ~eps:1e-12 "my1" 0.6 my.(1)

(* ------------------------------------------------------------------ *)
(* Dmc                                                                 *)
(* ------------------------------------------------------------------ *)

let test_bsc_mi () =
  (* uniform input on BSC(p): I = 1 - H(p) *)
  let ch = Infotheory.Channels.bsc 0.11 in
  let i = Infotheory.Dmc.mutual_information ch (Infotheory.Pmf.uniform 2) in
  check_float ~eps:1e-9 "1 - H(0.11)"
    (1. -. Infotheory.Info.binary_entropy 0.11) i

let test_bec_capacity_formula () =
  (* uniform input on BEC(e): I = 1 - e *)
  let ch = Infotheory.Channels.bec 0.4 in
  let i = Infotheory.Dmc.mutual_information ch (Infotheory.Pmf.uniform 2) in
  check_float ~eps:1e-9 "1 - e" 0.6 i

(* the identity channel over an alphabet of [n] symbols *)
let noiseless n =
  Infotheory.Dmc.create
    (Array.init n (fun x -> Array.init n (fun y -> if x = y then 1. else 0.)))

let test_noiseless () =
  let ch = noiseless 4 in
  let i = Infotheory.Dmc.mutual_information ch (Infotheory.Pmf.uniform 4) in
  check_float "2 bits" 2. i

let test_cascade_bsc () =
  (* two BSC(p) in cascade = BSC(2p(1-p)) *)
  let p = 0.1 in
  let ch = Infotheory.Dmc.cascade (Infotheory.Channels.bsc p) (Infotheory.Channels.bsc p) in
  let expected = 2. *. p *. (1. -. p) in
  check_float ~eps:1e-12 "crossover" expected (Infotheory.Dmc.transition ch 0 1)

let test_output_dist () =
  let ch = Infotheory.Channels.bsc 0.2 in
  let out = Infotheory.Dmc.output_dist ch (Infotheory.Pmf.binary 1.) in
  check_float "P(y=0)" 0.2 (Infotheory.Pmf.prob out 0);
  check_float "P(y=1)" 0.8 (Infotheory.Pmf.prob out 1)

let test_sample_with () =
  let ch = Infotheory.Channels.bsc 0.25 in
  Alcotest.(check int) "low u keeps symbol" 0
    (Infotheory.Dmc.sample_with ch ~u:0.5 0);
  Alcotest.(check int) "high u flips" 1
    (Infotheory.Dmc.sample_with ch ~u:0.9 0)

let test_dmc_invalid () =
  Alcotest.check_raises "bad row"
    (Invalid_argument "Dmc.create: row does not sum to 1") (fun () ->
      ignore (Infotheory.Dmc.create [| [| 0.5; 0.4 |] |]))

(* ------------------------------------------------------------------ *)
(* Mac                                                                 *)
(* ------------------------------------------------------------------ *)

let binary_adder_mac () =
  (* Y = X1 + X2 over {0,1,2}, noiseless: the classic binary adder MAC *)
  Infotheory.Mac.create
    (Array.init 2 (fun x1 ->
         Array.init 2 (fun x2 ->
             Array.init 3 (fun y -> if y = x1 + x2 then 1. else 0.))))

let test_adder_mac_terms () =
  let mac = binary_adder_mac () in
  let u = Infotheory.Pmf.uniform 2 in
  let t = Infotheory.Mac.rate_terms mac u u in
  (* I(X1;Y|X2) = H(X1) = 1; I(X1,X2;Y) = H(Y) = 1.5 *)
  check_float "I1|2" 1. t.Infotheory.Mac.i1_given_2;
  check_float "I2|1" 1. t.Infotheory.Mac.i2_given_1;
  check_float "I12" 1.5 t.Infotheory.Mac.i_joint

let test_adder_mac_region () =
  let mac = binary_adder_mac () in
  let u = Infotheory.Pmf.uniform 2 in
  let t = Infotheory.Mac.rate_terms mac u u in
  Alcotest.(check bool) "corner in" true (Infotheory.Mac.in_region t 1. 0.5);
  Alcotest.(check bool) "symmetric in" true
    (Infotheory.Mac.in_region t 0.75 0.75);
  Alcotest.(check bool) "sum too big" false
    (Infotheory.Mac.in_region t 1. 0.6)

let test_xor_mac_degenerate () =
  (* Y = X1 xor X2 noiseless: each user alone cannot be resolved without
     the other, but conditioned on X2 user 1 is perfect *)
  let mac =
    Infotheory.Mac.of_dmc_pair ~combine:(fun a b -> a lxor b)
      (noiseless 2)
  in
  let u = Infotheory.Pmf.uniform 2 in
  let t = Infotheory.Mac.rate_terms mac u u in
  check_float "I1|2 perfect" 1. t.Infotheory.Mac.i1_given_2;
  check_float "sum limited to 1" 1. t.Infotheory.Mac.i_joint

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let pmf_gen n =
  QCheck.(
    map
      (fun ws ->
        let a = Array.of_list ws in
        Infotheory.Pmf.of_weights (Array.map (fun w -> w +. 1e-6) a))
      (list_of_size (QCheck.Gen.return n) (float_range 0.001 10.)))

let prop_entropy_bounds =
  QCheck.Test.make ~count:200 ~name:"0 <= H(p) <= log2 n" (pmf_gen 5)
    (fun p ->
      let h = Infotheory.Pmf.entropy p in
      h >= -1e-12 && h <= Numerics.Float_utils.log2 5. +. 1e-12)

let prop_kl_nonneg =
  QCheck.Test.make ~count:200 ~name:"KL divergence >= 0"
    QCheck.(pair (pmf_gen 4) (pmf_gen 4))
    (fun (p, q) -> Infotheory.Info.kl_divergence p q >= -1e-9)

let prop_mi_nonneg_bsc =
  QCheck.Test.make ~count:200 ~name:"I(X;Y) >= 0 on random BSC/input"
    QCheck.(pair (float_range 0.01 0.99) (float_range 0.01 0.99))
    (fun (p, q) ->
      let ch = Infotheory.Channels.bsc p in
      Infotheory.Dmc.mutual_information ch (Infotheory.Pmf.binary q) >= -1e-9)

let prop_data_processing =
  QCheck.Test.make ~count:100 ~name:"cascade cannot increase information"
    QCheck.(triple (float_range 0.01 0.49) (float_range 0.01 0.49)
              (float_range 0.05 0.95))
    (fun (p1, p2, q) ->
      let ch1 = Infotheory.Channels.bsc p1 in
      let ch12 = Infotheory.Dmc.cascade ch1 (Infotheory.Channels.bsc p2) in
      let input = Infotheory.Pmf.binary q in
      Infotheory.Dmc.mutual_information ch12 input
      <= Infotheory.Dmc.mutual_information ch1 input +. 1e-9)

let prop_mac_sum_dominates =
  QCheck.Test.make ~count:100 ~name:"MAC: I12 <= I1|2 + I2|1 and both <= I12 hold"
    QCheck.(pair (float_range 0.05 0.95) (float_range 0.05 0.95))
    (fun (q1, q2) ->
      let mac = binary_adder_mac () in
      let t =
        Infotheory.Mac.rate_terms mac (Infotheory.Pmf.binary q1)
          (Infotheory.Pmf.binary q2)
      in
      (* standard MAC inequalities for independent inputs *)
      t.Infotheory.Mac.i1_given_2 <= t.Infotheory.Mac.i_joint +. 1e-9
      && t.Infotheory.Mac.i2_given_1 <= t.Infotheory.Mac.i_joint +. 1e-9
      && t.Infotheory.Mac.i_joint
         <= t.Infotheory.Mac.i1_given_2 +. t.Infotheory.Mac.i2_given_1 +. 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_entropy_bounds;
      prop_kl_nonneg;
      prop_mi_nonneg_bsc;
      prop_data_processing;
      prop_mac_sum_dominates;
    ]

let suites =
  [ ( "infotheory.pmf",
      [ Alcotest.test_case "uniform" `Quick test_pmf_uniform;
        Alcotest.test_case "deterministic" `Quick test_pmf_deterministic;
        Alcotest.test_case "binary" `Quick test_pmf_binary;
        Alcotest.test_case "invalid" `Quick test_pmf_invalid;
        Alcotest.test_case "product" `Quick test_pmf_product;
        Alcotest.test_case "expected" `Quick test_pmf_expected;
        Alcotest.test_case "tv distance" `Quick test_tv_distance;
      ] );
    ( "infotheory.info",
      [ Alcotest.test_case "binary entropy" `Quick test_binary_entropy;
        Alcotest.test_case "kl divergence" `Quick test_kl;
        Alcotest.test_case "MI independent" `Quick test_mutual_information_independent;
        Alcotest.test_case "MI perfect" `Quick test_mutual_information_perfect;
        Alcotest.test_case "marginals" `Quick test_marginals;
      ] );
    ( "infotheory.dmc",
      [ Alcotest.test_case "bsc MI" `Quick test_bsc_mi;
        Alcotest.test_case "bec MI" `Quick test_bec_capacity_formula;
        Alcotest.test_case "noiseless" `Quick test_noiseless;
        Alcotest.test_case "cascade bsc" `Quick test_cascade_bsc;
        Alcotest.test_case "output dist" `Quick test_output_dist;
        Alcotest.test_case "sample_with" `Quick test_sample_with;
        Alcotest.test_case "invalid" `Quick test_dmc_invalid;
      ] );
    ( "infotheory.mac",
      [ Alcotest.test_case "adder terms" `Quick test_adder_mac_terms;
        Alcotest.test_case "adder region" `Quick test_adder_mac_region;
        Alcotest.test_case "xor mac" `Quick test_xor_mac_degenerate;
      ] );
    ("infotheory.properties", qcheck_cases);
  ]
