(** Rendering of {!Bidir.Figures} data for terminals and files. *)

module Regression : module type of Regression
(** Text/JSON rendering of {!Telemetry.Snapshot} regression diffs. *)

val render_figure : ?width:int -> ?height:int -> Bidir.Figures.figure -> string
(** Terminal line chart. Figures whose id starts with ["fig4"] (rate
    regions) are drawn with zero-anchored axes. *)

val render_table : Bidir.Figures.table -> string
(** Aligned text table with its title. *)

val figure_svg : Bidir.Figures.figure -> string
(** Standalone SVG document of the figure (vector twin of
    {!render_figure}). *)

val figure_csv : Bidir.Figures.figure -> string
(** Long-format CSV: [series,x,y]. *)

val table_csv : Bidir.Figures.table -> string

val protocol_map :
  ?positions:int -> ?powers:int -> ?power_range_db:float * float ->
  ?exponent:float -> unit -> string
(** A "which protocol wins where" heatmap over the relay-position x
    transmit-power plane (path-loss line geometry, inner bounds):
    D = DT, N = NAIVE, M = MABC, T = TDBC, H = HBC (the letter shown is
    the best protocol strictly dominating the others; ties resolve to
    the simplest protocol in {!Bidir.Protocol.all} order). *)
