module Regression = Regression

let to_chart_series (s : Bidir.Figures.series) =
  { Chart.Line_chart.label = s.Bidir.Figures.label;
    points = s.Bidir.Figures.points;
  }

let render_figure ?(width = 72) ?(height = 20) (f : Bidir.Figures.figure) =
  let config =
    { Chart.Line_chart.default_config with
      Chart.Line_chart.width;
      height;
      title = Printf.sprintf "[%s] %s" f.Bidir.Figures.id f.Bidir.Figures.title;
      xlabel = f.Bidir.Figures.xlabel;
      ylabel = f.Bidir.Figures.ylabel;
    }
  in
  let series = List.map to_chart_series f.Bidir.Figures.series in
  let is_region =
    String.length f.Bidir.Figures.id >= 4
    && String.sub f.Bidir.Figures.id 0 4 = "fig4"
  in
  if is_region then Chart.Line_chart.render_xy ~config series
  else Chart.Line_chart.render ~config series

let render_table (t : Bidir.Figures.table) =
  Printf.sprintf "[%s] %s\n%s" t.Bidir.Figures.table_id
    t.Bidir.Figures.table_title
    (Chart.Table.render ~headers:t.Bidir.Figures.headers
       ~rows:t.Bidir.Figures.rows)

let figure_svg (f : Bidir.Figures.figure) =
  let is_region =
    String.length f.Bidir.Figures.id >= 4
    && String.sub f.Bidir.Figures.id 0 4 = "fig4"
  in
  let config =
    { Chart.Svg.default_config with
      Chart.Svg.title = f.Bidir.Figures.title;
      xlabel = f.Bidir.Figures.xlabel;
      ylabel = f.Bidir.Figures.ylabel;
      zero_origin = is_region;
    }
  in
  Chart.Svg.render ~config (List.map to_chart_series f.Bidir.Figures.series)

let figure_csv (f : Bidir.Figures.figure) =
  let rows =
    List.concat_map
      (fun (s : Bidir.Figures.series) ->
        List.map
          (fun (x, y) ->
            [ s.Bidir.Figures.label;
              Printf.sprintf "%.6f" x;
              Printf.sprintf "%.6f" y;
            ])
          s.Bidir.Figures.points)
      f.Bidir.Figures.series
  in
  Chart.Table.render_csv ~headers:[ "series"; "x"; "y" ] ~rows

let table_csv (t : Bidir.Figures.table) =
  Chart.Table.render_csv ~headers:t.Bidir.Figures.headers
    ~rows:t.Bidir.Figures.rows

let protocol_map ?(positions = 33) ?(powers = 15)
    ?(power_range_db = (-10., 20.)) ?(exponent = 3.) () =
  let lo_db, hi_db = power_range_db in
  let pl = Channel.Pathloss.make ~exponent () in
  let glyph p =
    match p with
    | Bidir.Protocol.Dt -> 'D'
    | Bidir.Protocol.Naive -> 'N'
    | Bidir.Protocol.Mabc -> 'M'
    | Bidir.Protocol.Tdbc -> 'T'
    | Bidir.Protocol.Hbc -> 'H'
  in
  let best ~x ~y =
    let gains = Channel.Pathloss.gains_on_line pl ~relay_position:x in
    let s = Bidir.Gaussian.scenario ~power_db:y ~gains in
    (Bidir.Optimize.best_protocol Bidir.Bound.Inner s).Bidir.Optimize.protocol
  in
  let map =
    Chart.Heatmap.tabulate ~f:best ~glyph
      ~x_axis:(Numerics.Float_utils.linspace 0.05 0.95 positions)
      ~y_axis:(Numerics.Float_utils.linspace lo_db hi_db powers)
      ~title:
        (Printf.sprintf
           "Best protocol by relay position and power (alpha=%g, Gab=0 dB)"
           exponent)
      ~xlabel:"relay position d" ~ylabel:"P (dB)"
      ~legend:
        (List.map
           (fun p -> (glyph p, Bidir.Protocol.name p))
           Bidir.Protocol.all)
  in
  Chart.Heatmap.render map
