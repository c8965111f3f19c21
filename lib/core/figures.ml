type series = { label : string; points : (float * float) list }

type figure = {
  id : string;
  title : string;
  xlabel : string;
  ylabel : string;
  series : series list;
}

type table = {
  table_id : string;
  table_title : string;
  headers : string list;
  rows : string list list;
}

let fmt_f v = Printf.sprintf "%.4f" v

(* Every generator runs under a span so a trace of a figure pass shows
   one bar per artifact with the LP / region work nested beneath it. *)
let span name f = Telemetry.Span.with_span ~cat:"figures" name f

let fig3 ?(power_db = 15.) ?(exponent = 3.) ?(samples = 37) () =
  span "figures.fig3" @@ fun () ->
  let pl = Channel.Pathloss.make ~exponent () in
  let positions =
    Array.to_list (Numerics.Float_utils.linspace 0.05 0.95 samples)
  in
  let sum_rate_at protocol d =
    let gains = Channel.Pathloss.gains_on_line pl ~relay_position:d in
    let s = Gaussian.scenario ~power_db ~gains in
    (Optimize.sum_rate protocol Bound.Inner s).Optimize.sum_rate
  in
  (* one pool task per position, each evaluating every protocol *)
  let per_position =
    Engine.Pool.map
      (fun d -> List.map (fun p -> sum_rate_at p d) Protocol.all)
      positions
  in
  let series =
    List.mapi
      (fun pi p ->
        { label = Protocol.name p;
          points =
            List.map2 (fun d rates -> (d, List.nth rates pi)) positions
              per_position;
        })
      Protocol.all
  in
  { id = "fig3";
    title =
      Printf.sprintf
        "Achievable sum rates vs relay position (P=%g dB, Gab=0 dB, alpha=%g)"
        power_db exponent;
    xlabel = "relay position d (distance from a)";
    ylabel = "sum rate Ra+Rb (bits/use)";
    series;
  }

let fig3_snr ?(gains = Channel.Gains.paper_fig4) ?(samples = 36) () =
  span "figures.fig3_snr" @@ fun () ->
  let powers = Array.to_list (Numerics.Float_utils.linspace (-10.) 25. samples) in
  let per_power =
    Engine.Pool.map
      (fun power_db ->
        let s = Gaussian.scenario ~power_db ~gains in
        List.map
          (fun p -> (Optimize.sum_rate p Bound.Inner s).Optimize.sum_rate)
          Protocol.all)
      powers
  in
  let series =
    List.mapi
      (fun pi p ->
        { label = Protocol.name p;
          points =
            List.map2 (fun power_db rates -> (power_db, List.nth rates pi))
              powers per_power;
        })
      Protocol.all
  in
  { id = "fig3-snr";
    title = "Achievable sum rates vs transmit power (Fig. 4 gains)";
    xlabel = "P (dB)";
    ylabel = "sum rate Ra+Rb (bits/use)";
    series;
  }

let boundary_points b =
  List.map
    (fun (p : Numerics.Vec2.t) -> (p.Numerics.Vec2.x, p.Numerics.Vec2.y))
    (Rate_region.boundary b)

let fig4 ~power_db ?(gains = Channel.Gains.paper_fig4) () =
  span "figures.fig4" @@ fun () ->
  let s = Gaussian.scenario ~power_db ~gains in
  let inner p =
    { label = Protocol.name p ^ " inner";
      points = boundary_points (Gaussian.bounds p Bound.Inner s);
    }
  in
  let outer p =
    { label = Protocol.name p ^ " outer";
      points = boundary_points (Gaussian.bounds p Bound.Outer s);
    }
  in
  { id = Printf.sprintf "fig4-%gdB" power_db;
    title =
      Printf.sprintf
        "Achievable rate regions and outer bounds (P=%g dB, Gab=0 Gar=5 Gbr=7 dB)"
        power_db;
    xlabel = "Ra (bits/use)";
    ylabel = "Rb (bits/use)";
    series =
      [ inner Protocol.Dt;
        inner Protocol.Mabc;
        (* Theorem 2: MABC outer = inner = capacity *)
        inner Protocol.Tdbc;
        outer Protocol.Tdbc;
        inner Protocol.Hbc;
        outer Protocol.Hbc;
      ];
  }

let gap_table ?(powers_db = [ 0.; 5.; 10.; 15. ]) ?(gains = Channel.Gains.paper_fig4)
    () =
  span "figures.gap_table" @@ fun () ->
  let jobs =
    List.concat_map
      (fun power_db ->
        List.map (fun p -> (power_db, p)) [ Protocol.Tdbc; Protocol.Hbc ])
      powers_db
  in
  let rows =
    Engine.Pool.map
      (fun (power_db, p) ->
        let s = Gaussian.scenario ~power_db ~gains in
        let inner = (Optimize.sum_rate p Bound.Inner s).Optimize.sum_rate in
        let outer = (Optimize.sum_rate p Bound.Outer s).Optimize.sum_rate in
        let gap =
          Float.max 0. ((outer -. inner) /. Float.max outer 1e-12 *. 100.)
        in
        [ Printf.sprintf "%g" power_db;
          Protocol.name p;
          fmt_f inner;
          fmt_f outer;
          Printf.sprintf "%.2f%%" gap;
        ])
      jobs
  in
  { table_id = "gap";
    table_title = "Inner vs outer optimal sum rates (TDBC: Thm 3/4, HBC: Thm 5/6)";
    headers = [ "P (dB)"; "protocol"; "inner"; "outer"; "rel. gap" ];
    rows;
  }

let crossover_table ?(gains = Channel.Gains.paper_fig4) () =
  span "figures.crossover_table" @@ fun () ->
  let pairs =
    [ (Protocol.Mabc, Protocol.Tdbc);
      (Protocol.Mabc, Protocol.Dt);
      (Protocol.Tdbc, Protocol.Dt);
    ]
  in
  let rows =
    List.map
      (fun (p1, p2) ->
        let xs =
          Optimize.crossover_powers_db (p1, p2) ~gains Bound.Inner
        in
        let rendered =
          if xs = [] then "none in [-10, 25] dB"
          else String.concat ", " (List.map (Printf.sprintf "%.2f dB") xs)
        in
        [ Protocol.name p1 ^ " vs " ^ Protocol.name p2; rendered ])
      pairs
  in
  (* HBC never crosses the others (it contains both as special cases);
     report the band where it is STRICTLY better instead *)
  let hbc_band =
    let strict power_db =
      let s = Gaussian.scenario ~power_db ~gains in
      let sum p = (Optimize.sum_rate p Bound.Inner s).Optimize.sum_rate in
      sum Protocol.Hbc
      -. Float.max (sum Protocol.Mabc) (sum Protocol.Tdbc)
      > 1e-4
    in
    let samples = Array.to_list (Numerics.Float_utils.linspace (-10.) 25. 141) in
    let flags = Engine.Pool.map strict samples in
    let inside =
      List.filter_map
        (fun (p, ok) -> if ok then Some p else None)
        (List.combine samples flags)
    in
    match inside with
    | [] -> "never strict in [-10, 25] dB"
    | _ ->
      Printf.sprintf "strict advantage for P in [%.2f, %.2f] dB"
        (List.fold_left Float.min infinity inside)
        (List.fold_left Float.max neg_infinity inside)
  in
  let rows = rows @ [ [ "HBC vs max(MABC, TDBC)"; hbc_band ] ] in
  { table_id = "crossover";
    table_title = "Sum-rate crossover powers (Fig. 4 gains)";
    headers = [ "protocol pair"; "crossover P" ];
    rows;
  }

let hbc_witness_table ?(powers_db = [ 0.; 5.; 10. ])
    ?(gains = Channel.Gains.paper_fig4) () =
  span "figures.hbc_witness_table" @@ fun () ->
  let rows =
    List.map
      (fun power_db ->
        let s = Gaussian.scenario ~power_db ~gains in
        match Optimize.hbc_strict_advantage s with
        | Some (ra, rb, margin) ->
          [ Printf.sprintf "%g" power_db;
            fmt_f ra;
            fmt_f rb;
            fmt_f margin;
            "yes";
          ]
        | None ->
          [ Printf.sprintf "%g" power_db; "-"; "-"; "-"; "no" ])
      powers_db
  in
  { table_id = "hbc-witness";
    table_title =
      "HBC-achievable pairs outside BOTH the MABC and TDBC outer bounds";
    headers = [ "P (dB)"; "Ra"; "Rb"; "margin"; "escapes?" ];
    rows;
  }

let coding_gain_table ?(powers_db = [ 0.; 5.; 10.; 15. ])
    ?(gains = Channel.Gains.paper_fig4) () =
  span "figures.coding_gain_table" @@ fun () ->
  let rows =
    List.map
      (fun power_db ->
        let s = Gaussian.scenario ~power_db ~gains in
        let sum p = (Optimize.sum_rate p Bound.Inner s).Optimize.sum_rate in
        let naive = sum Protocol.Naive in
        let best_coded =
          List.fold_left
            (fun acc p -> Float.max acc (sum p))
            0. Protocol.coded
        in
        [ Printf.sprintf "%g" power_db;
          fmt_f (sum Protocol.Dt);
          fmt_f naive;
          fmt_f best_coded;
          Printf.sprintf "+%.1f%%" (100. *. ((best_coded /. naive) -. 1.));
        ])
      powers_db
  in
  { table_id = "coding-gain";
    table_title =
      "Coded cooperation vs the naive 4-phase routing baseline (Fig. 1)";
    headers =
      [ "P (dB)"; "DT"; "NAIVE"; "best coded"; "gain over NAIVE" ];
    rows;
  }

let discrete_table ?(p_range = [ 0.01; 0.05; 0.1; 0.2 ]) () =
  span "figures.discrete_table" @@ fun () ->
  let rows =
    List.concat_map
      (fun p ->
        let net =
          (* direct link noisier than the relay links, mirroring the
             Gaussian geometry Gab <= Gar <= Gbr *)
          Discrete.bsc_network ~p_ab:(Float.min 0.45 (3. *. p)) ~p_ar:(1.5 *. p)
            ~p_br:p ~p_mac:(1.5 *. p)
        in
        let ins = Discrete.uniform_inputs net in
        List.map
          (fun proto ->
            let b = Discrete.bounds proto Bound.Inner net ins in
            let r = Rate_region.max_sum_rate b in
            [ Printf.sprintf "%.2f" p;
              Protocol.name proto;
              fmt_f (Rate_region.sum r);
            ])
          Protocol.relayed)
      p_range
  in
  { table_id = "discrete-bsc";
    table_title =
      "Discrete (all-BSC) network: optimal sum rates, uniform inputs";
    headers = [ "relay-link p"; "protocol"; "sum rate" ];
    rows;
  }
