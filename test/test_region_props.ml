(* Property tests for rate-region geometry on random Gaussian
   scenarios. Gains are drawn in dB and sorted into the paper's
   standing ordering g_ab <= g_ar <= g_br; powers span the range the
   figures actually sweep. *)

let scenario_gen =
  QCheck.(
    map
      (fun (power_db, (d1, d2, d3)) ->
        let g1, g2, g3 =
          match List.sort compare [ d1; d2; d3 ] with
          | [ a; b; c ] -> (a, b, c)
          | _ -> assert false
        in
        Bidir.Gaussian.scenario ~power_db
          ~gains:(Channel.Gains.of_db ~g_ab:g1 ~g_ar:g2 ~g_br:g3))
      (pair (float_range (-5.) 15.)
         (triple (float_range 0. 10.) (float_range 0. 10.)
            (float_range 0. 10.))))

let all_systems =
  List.concat_map
    (fun p -> [ (p, Bidir.Bound.Inner); (p, Bidir.Bound.Outer) ])
    Bidir.Protocol.all

let prop_max_sum_rate_achievable =
  QCheck.Test.make ~count:40 ~name:"max_sum_rate point is achievable"
    scenario_gen (fun s ->
      List.for_all
        (fun (p, kind) ->
          let b = Bidir.Gaussian.bounds p kind s in
          let r = Bidir.Rate_region.max_sum_rate b in
          Bidir.Rate_region.achievable b ~ra:r.Bidir.Rate_region.ra
            ~rb:r.Bidir.Rate_region.rb)
        all_systems)

let prop_inner_contained_in_outer =
  QCheck.Test.make ~count:25 ~name:"inner region inside outer region"
    scenario_gen (fun s ->
      List.for_all
        (fun p ->
          let inner = Bidir.Gaussian.bounds p Bidir.Bound.Inner s in
          let outer = Bidir.Gaussian.bounds p Bidir.Bound.Outer s in
          Bidir.Rate_region.contains_region ~weights:9 outer inner)
        [ Bidir.Protocol.Mabc; Bidir.Protocol.Tdbc; Bidir.Protocol.Hbc ])

let prop_area_monotone_in_power =
  (* more transmit power can only enlarge an achievable-rate region *)
  QCheck.Test.make ~count:25 ~name:"area monotone in power"
    QCheck.(pair scenario_gen (float_range 0.5 6.))
    (fun (s, extra_db) ->
      let louder =
        let db = 10. *. log10 s.Bidir.Gaussian.power in
        Bidir.Gaussian.scenario ~power_db:(db +. extra_db)
          ~gains:s.Bidir.Gaussian.gains
      in
      List.for_all
        (fun (p, kind) ->
          let area s =
            Numerics.Polygon.area
              (Bidir.Rate_region.polygon ~weights:9
                 (Bidir.Gaussian.bounds p kind s))
          in
          let a_lo = area s and a_hi = area louder in
          a_hi >= a_lo -. 1e-9)
        all_systems)

let suites =
  [ ( "bidir.region_props",
      List.map QCheck_alcotest.to_alcotest
        [ prop_max_sum_rate_achievable;
          prop_inner_contained_in_outer;
          prop_area_monotone_in_power;
        ] );
  ]
