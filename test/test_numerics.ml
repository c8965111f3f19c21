(* Tests for the numerics substrate. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Float_utils                                                         *)
(* ------------------------------------------------------------------ *)

let test_log2 () =
  check_float "log2 8" 3. (Numerics.Float_utils.log2 8.);
  check_float "log2 1" 0. (Numerics.Float_utils.log2 1.);
  check_float "log2 sqrt2" 0.5 (Numerics.Float_utils.log2 (sqrt 2.))

let test_db_round_trip () =
  List.iter
    (fun d ->
      check_float ~eps:1e-9 "db round trip" d
        (Numerics.Float_utils.lin_to_db (Numerics.Float_utils.db_to_lin d)))
    [ -20.; -3.; 0.; 5.; 10.; 17.3 ]

let test_db_values () =
  check_float "0 dB" 1. (Numerics.Float_utils.db_to_lin 0.);
  check_float "10 dB" 10. (Numerics.Float_utils.db_to_lin 10.);
  check_float "20 dB" 100. (Numerics.Float_utils.db_to_lin 20.)

let test_lin_to_db_invalid () =
  Alcotest.check_raises "non-positive" (Invalid_argument
    "Float_utils.lin_to_db: non-positive ratio") (fun () ->
      ignore (Numerics.Float_utils.lin_to_db 0.))

let test_clamp () =
  check_float "below" 1. (Numerics.Float_utils.clamp ~lo:1. ~hi:2. 0.);
  check_float "above" 2. (Numerics.Float_utils.clamp ~lo:1. ~hi:2. 3.);
  check_float "inside" 1.5 (Numerics.Float_utils.clamp ~lo:1. ~hi:2. 1.5)

let test_linspace () =
  let a = Numerics.Float_utils.linspace 0. 1. 5 in
  Alcotest.(check int) "length" 5 (Array.length a);
  check_float "first" 0. a.(0);
  check_float "last" 1. a.(4);
  check_float "middle" 0.5 a.(2)

let test_logspace () =
  let a = Numerics.Float_utils.logspace 0. 2. 3 in
  check_float "first" 1. a.(0);
  check_float "mid" 10. a.(1);
  check_float "last" 100. a.(2)

let test_kahan_sum () =
  (* adding many tiny values to a large one: naive sum loses them *)
  let a = Array.make 10_000_001 1e-8 in
  a.(0) <- 1e8;
  check_float ~eps:1e-6 "kahan" (1e8 +. 0.1) (Numerics.Float_utils.sum a)

let test_max_by () =
  Alcotest.(check int) "max_by" 9
    (Numerics.Float_utils.max_by float_of_int [ 3; 9; 1; 7 ])

let test_fold_range () =
  Alcotest.(check int) "sum 0..9" 45
    (Numerics.Float_utils.fold_range 10 ~init:0 ~f:( + ))

(* ------------------------------------------------------------------ *)
(* Special                                                             *)
(* ------------------------------------------------------------------ *)

let test_erf_values () =
  check_float ~eps:1e-6 "erf 0" 0. (Numerics.Special.erf 0.);
  check_float ~eps:1e-6 "erf 1" 0.8427007929 (Numerics.Special.erf 1.);
  check_float ~eps:1e-6 "erf -1" (-0.8427007929) (Numerics.Special.erf (-1.));
  check_float ~eps:1e-6 "erf 2" 0.9953222650 (Numerics.Special.erf 2.)

let test_q_function () =
  check_float ~eps:1e-6 "Q(0)" 0.5 (Numerics.Special.q_function 0.);
  check_float ~eps:1e-6 "Q(1.644853)" 0.05
    (Numerics.Special.q_function 1.6448536269);
  check_float ~eps:1e-7 "Q(3)" 0.0013498980
    (Numerics.Special.q_function 3.)

let test_inv_q () =
  List.iter
    (fun p ->
      check_float ~eps:1e-6 "inv_q round trip" p
        (Numerics.Special.q_function (Numerics.Special.inv_q p)))
    [ 0.01; 0.05; 0.3; 0.5; 0.9; 0.99 ]

let test_gaussian_cdf_symmetry () =
  List.iter
    (fun x ->
      check_float ~eps:1e-7 "cdf(-x) = 1 - cdf(x)"
        (1. -. Numerics.Special.gaussian_cdf x)
        (Numerics.Special.gaussian_cdf (-.x)))
    [ 0.3; 1.; 2.5 ]

(* ------------------------------------------------------------------ *)
(* Root                                                                *)
(* ------------------------------------------------------------------ *)

let test_bisect () =
  let r = Numerics.Root.bisect ~f:(fun x -> (x *. x) -. 2.) 0. 2. in
  check_float ~eps:1e-8 "sqrt 2" (sqrt 2.) r

let test_brent () =
  let r = Numerics.Root.brent ~f:(fun x -> cos x -. x) 0. 1. in
  check_float ~eps:1e-9 "dottie number" 0.7390851332151607 r

let test_brent_linear () =
  let r = Numerics.Root.brent ~f:(fun x -> (3. *. x) -. 6.) 0. 10. in
  check_float ~eps:1e-9 "linear root" 2. r

let test_crossings () =
  let roots =
    Numerics.Root.crossings ~f:sin ~lo:1. ~hi:7. ~samples:100
  in
  Alcotest.(check int) "two roots of sin on [1,7]" 2 (List.length roots);
  (match roots with
  | [ r1; r2 ] ->
    check_float ~eps:1e-8 "pi" Float.pi r1;
    check_float ~eps:1e-8 "2pi" (2. *. Float.pi) r2
  | _ -> Alcotest.fail "expected exactly two roots")

let test_bisect_bad_bracket () =
  Alcotest.check_raises "no bracket"
    (Invalid_argument "Root.bisect: endpoints do not bracket a root")
    (fun () -> ignore (Numerics.Root.bisect ~f:(fun x -> x +. 10.) 0. 1.))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_summarize () =
  let s = Numerics.Stats.summarize [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. s.Numerics.Stats.mean;
  check_float ~eps:1e-9 "variance" (32. /. 7.) s.Numerics.Stats.variance;
  check_float "min" 2. s.Numerics.Stats.min;
  check_float "max" 9. s.Numerics.Stats.max

let test_quantile () =
  let a = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Numerics.Stats.median a);
  check_float "q0" 1. (Numerics.Stats.quantile a 0.);
  check_float "q1" 5. (Numerics.Stats.quantile a 1.);
  check_float "q25" 2. (Numerics.Stats.quantile a 0.25)

let test_histogram () =
  let h = Numerics.Stats.histogram ~bins:2 [| 0.; 0.1; 0.9; 1. |] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all samples binned" 4 total

let test_ci_contains_mean () =
  let a = Array.init 1000 (fun i -> float_of_int (i mod 10)) in
  let lo, hi = Numerics.Stats.confidence_interval_95 a in
  Alcotest.(check bool) "mean in CI" true (lo <= 4.5 && 4.5 <= hi)

(* ------------------------------------------------------------------ *)
(* Geometry: Vec2 / Hull / Polygon                                     *)
(* ------------------------------------------------------------------ *)

let v = Numerics.Vec2.make

let test_vec2_ops () =
  let a = v 1. 2. and b = v 3. 4. in
  check_float "dot" 11. (Numerics.Vec2.dot a b);
  check_float "cross" (-2.) (Numerics.Vec2.cross a b);
  check_float "dist" (2. *. sqrt 2.) (Numerics.Vec2.dist a b);
  Alcotest.(check bool) "lerp midpoint" true
    (Numerics.Vec2.equal (v 2. 3.) (Numerics.Vec2.lerp a b 0.5))

let test_hull_square () =
  let pts =
    [ v 0. 0.; v 1. 0.; v 1. 1.; v 0. 1.; v 0.5 0.5; v 0.2 0.8 ]
  in
  let hull = Numerics.Hull.convex_hull pts in
  Alcotest.(check int) "square hull has 4 vertices" 4 (List.length hull);
  Alcotest.(check bool) "hull is ccw-convex" true
    (Numerics.Hull.is_convex_ccw hull)

let test_hull_collinear () =
  let pts = [ v 0. 0.; v 1. 1.; v 2. 2.; v 3. 3. ] in
  let hull = Numerics.Hull.convex_hull pts in
  Alcotest.(check int) "collinear -> 2 extremes" 2 (List.length hull)

let test_hull_duplicates () =
  let pts = [ v 0. 0.; v 0. 0.; v 1. 0.; v 1. 0.; v 0. 1. ] in
  let hull = Numerics.Hull.convex_hull pts in
  Alcotest.(check int) "triangle" 3 (List.length hull)

let test_polygon_area () =
  let square = [ v 0. 0.; v 2. 0.; v 2. 2.; v 0. 2. ] in
  check_float "square area" 4. (Numerics.Polygon.area square);
  let triangle = [ v 0. 0.; v 1. 0.; v 0. 1. ] in
  check_float "triangle area" 0.5 (Numerics.Polygon.area triangle)

let test_polygon_contains () =
  let square = [ v 0. 0.; v 2. 0.; v 2. 2.; v 0. 2. ] in
  Alcotest.(check bool) "inside" true (Numerics.Polygon.contains square (v 1. 1.));
  Alcotest.(check bool) "boundary" true (Numerics.Polygon.contains square (v 2. 1.));
  Alcotest.(check bool) "outside" false
    (Numerics.Polygon.contains square (v 2.1 1.))

(* regression: a clockwise vertex list used to report every interior
   point as outside *)
let test_polygon_contains_clockwise () =
  let cw_square = [ v 0. 2.; v 2. 2.; v 2. 0.; v 0. 0. ] in
  Alcotest.(check bool) "cw inside" true
    (Numerics.Polygon.contains cw_square (v 1. 1.));
  Alcotest.(check bool) "cw boundary" true
    (Numerics.Polygon.contains cw_square (v 2. 1.));
  Alcotest.(check bool) "cw outside" false
    (Numerics.Polygon.contains cw_square (v 2.1 1.));
  check_float "cw area" 4. (Numerics.Polygon.area cw_square);
  check_float "cw distance" 1.
    (Numerics.Polygon.distance_to_boundary cw_square (v 1. 1.))

let test_down_closure () =
  let region = Numerics.Polygon.down_closure [ v 1. 2.; v 2. 1. ] in
  Alcotest.(check bool) "origin inside" true
    (Numerics.Polygon.contains region (v 0. 0.));
  Alcotest.(check bool) "projection inside" true
    (Numerics.Polygon.contains region (v 1. 0.));
  Alcotest.(check bool) "time-share midpoint inside" true
    (Numerics.Polygon.contains region (v 1.5 1.5))

let test_distance_to_boundary () =
  let square = [ v 0. 0.; v 2. 0.; v 2. 2.; v 0. 2. ] in
  check_float "center" 1. (Numerics.Polygon.distance_to_boundary square (v 1. 1.));
  check_float "outside point" 1.
    (Numerics.Polygon.distance_to_boundary square (v 3. 1.))

(* ------------------------------------------------------------------ *)
(* Integrate                                                           *)
(* ------------------------------------------------------------------ *)

let test_simpson () =
  let v = Numerics.Integrate.simpson ~f:sin ~lo:0. ~hi:Float.pi ~n:100 in
  check_float ~eps:1e-6 "int sin" 2. v

let test_adaptive () =
  let v = Numerics.Integrate.adaptive_simpson ~lo:0. ~hi:10. (fun x -> exp (-.x)) in
  check_float ~eps:1e-8 "int exp" (1. -. exp (-10.)) v

let test_trapezoid () =
  let v = Numerics.Integrate.trapezoid ~f:(fun x -> x) ~lo:0. ~hi:1. ~n:10 in
  check_float ~eps:1e-12 "linear exact" 0.5 v

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let pts_gen =
  QCheck.(
    list_of_size Gen.(int_range 3 40)
      (pair (float_bound_exclusive 10.) (float_bound_exclusive 10.)))

let prop_hull_contains_all =
  QCheck.Test.make ~count:200 ~name:"hull contains all input points" pts_gen
    (fun pts ->
      let pts = List.map (fun (x, y) -> v x y) pts in
      let hull = Numerics.Hull.convex_hull pts in
      match hull with
      | [] | [ _ ] | [ _; _ ] -> true
      | _ -> List.for_all (Numerics.Polygon.contains hull) pts)

let prop_hull_idempotent =
  QCheck.Test.make ~count:200 ~name:"hull of hull = hull" pts_gen (fun pts ->
      let pts = List.map (fun (x, y) -> v x y) pts in
      let h1 = Numerics.Hull.convex_hull pts in
      let h2 = Numerics.Hull.convex_hull h1 in
      List.length h1 = List.length h2)

let prop_hull_convex =
  QCheck.Test.make ~count:200 ~name:"hull is convex ccw" pts_gen (fun pts ->
      let pts = List.map (fun (x, y) -> v x y) pts in
      Numerics.Hull.is_convex_ccw (Numerics.Hull.convex_hull pts))

let prop_clamp_in_range =
  QCheck.Test.make ~count:200 ~name:"clamp lands inside"
    QCheck.(triple (float_range (-100.) 100.) (float_range (-100.) 100.)
              (float_range (-100.) 100.))
    (fun (a, b, x) ->
      let lo = Float.min a b and hi = Float.max a b in
      let c = Numerics.Float_utils.clamp ~lo ~hi x in
      lo <= c && c <= hi)

let prop_quantile_monotone =
  QCheck.Test.make ~count:100 ~name:"quantile is monotone in p"
    QCheck.(list_of_size Gen.(int_range 2 50) (float_range (-50.) 50.))
    (fun xs ->
      let a = Array.of_list xs in
      let q25 = Numerics.Stats.quantile a 0.25 in
      let q50 = Numerics.Stats.quantile a 0.5 in
      let q75 = Numerics.Stats.quantile a 0.75 in
      q25 <= q50 && q50 <= q75)

let prop_polygon_orientation_invariant =
  QCheck.Test.make ~count:200
    ~name:"contains/area/distance agree on CCW and CW windings"
    QCheck.(
      pair pts_gen
        (pair (float_bound_exclusive 12.) (float_bound_exclusive 12.)))
    (fun (pts, (px, py)) ->
      let pts = List.map (fun (x, y) -> v x y) pts in
      let hull = Numerics.Hull.convex_hull pts in
      match hull with
      | [] | [ _ ] | [ _; _ ] -> true
      | _ ->
        let cw = List.rev hull in
        let p = v px py in
        Numerics.Polygon.contains hull p = Numerics.Polygon.contains cw p
        && abs_float (Numerics.Polygon.area hull -. Numerics.Polygon.area cw)
           < 1e-9
        && abs_float
             (Numerics.Polygon.distance_to_boundary hull p
              -. Numerics.Polygon.distance_to_boundary cw p)
           < 1e-9)

let prop_brent_finds_root =
  QCheck.Test.make ~count:100 ~name:"brent solves monotone cubic"
    QCheck.(float_range 0.1 50.)
    (fun c ->
      (* f(x) = x^3 + x - c is strictly increasing with a unique root *)
      let f x = (x ** 3.) +. x -. c in
      let r = Numerics.Root.brent ~f 0. 10. in
      abs_float (f r) < 1e-6)

let prop_erf_odd =
  QCheck.Test.make ~count:100 ~name:"erf is odd"
    QCheck.(float_range (-4.) 4.)
    (fun x ->
      abs_float (Numerics.Special.erf x +. Numerics.Special.erf (-.x)) < 1e-6)

let prop_summarize_bounds =
  QCheck.Test.make ~count:100 ~name:"min <= mean <= max"
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-50.) 50.))
    (fun xs ->
      let s = Numerics.Stats.summarize (Array.of_list xs) in
      s.Numerics.Stats.min <= s.Numerics.Stats.mean +. 1e-9
      && s.Numerics.Stats.mean <= s.Numerics.Stats.max +. 1e-9)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_hull_contains_all;
      prop_hull_idempotent;
      prop_hull_convex;
      prop_clamp_in_range;
      prop_quantile_monotone;
      prop_polygon_orientation_invariant;
      prop_brent_finds_root;
      prop_erf_odd;
      prop_summarize_bounds;
    ]

let suites =
  [ ( "numerics.float_utils",
      [ Alcotest.test_case "log2" `Quick test_log2;
        Alcotest.test_case "db round trip" `Quick test_db_round_trip;
        Alcotest.test_case "db values" `Quick test_db_values;
        Alcotest.test_case "lin_to_db invalid" `Quick test_lin_to_db_invalid;
        Alcotest.test_case "clamp" `Quick test_clamp;
        Alcotest.test_case "linspace" `Quick test_linspace;
        Alcotest.test_case "logspace" `Quick test_logspace;
        Alcotest.test_case "kahan sum" `Quick test_kahan_sum;
        Alcotest.test_case "max_by" `Quick test_max_by;
        Alcotest.test_case "fold_range" `Quick test_fold_range;
      ] );
    ( "numerics.special",
      [ Alcotest.test_case "erf values" `Quick test_erf_values;
        Alcotest.test_case "q function" `Quick test_q_function;
        Alcotest.test_case "inverse q" `Quick test_inv_q;
        Alcotest.test_case "cdf symmetry" `Quick test_gaussian_cdf_symmetry;
      ] );
    ( "numerics.root",
      [ Alcotest.test_case "bisect" `Quick test_bisect;
        Alcotest.test_case "brent" `Quick test_brent;
        Alcotest.test_case "brent linear" `Quick test_brent_linear;
        Alcotest.test_case "crossings" `Quick test_crossings;
        Alcotest.test_case "bad bracket" `Quick test_bisect_bad_bracket;
      ] );
    ( "numerics.stats",
      [ Alcotest.test_case "summarize" `Quick test_summarize;
        Alcotest.test_case "quantile" `Quick test_quantile;
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "confidence interval" `Quick test_ci_contains_mean;
      ] );
    ( "numerics.geometry",
      [ Alcotest.test_case "vec2 ops" `Quick test_vec2_ops;
        Alcotest.test_case "hull square" `Quick test_hull_square;
        Alcotest.test_case "hull collinear" `Quick test_hull_collinear;
        Alcotest.test_case "hull duplicates" `Quick test_hull_duplicates;
        Alcotest.test_case "polygon area" `Quick test_polygon_area;
        Alcotest.test_case "polygon contains" `Quick test_polygon_contains;
        Alcotest.test_case "polygon contains clockwise" `Quick
          test_polygon_contains_clockwise;
        Alcotest.test_case "down closure" `Quick test_down_closure;
        Alcotest.test_case "distance to boundary" `Quick test_distance_to_boundary;
      ] );
    ( "numerics.integrate",
      [ Alcotest.test_case "simpson" `Quick test_simpson;
        Alcotest.test_case "adaptive" `Quick test_adaptive;
        Alcotest.test_case "trapezoid" `Quick test_trapezoid;
      ] );
    ("numerics.properties", qcheck_cases);
  ]
