module Json = Telemetry.Json

type kind = Sumrate | Select | Region

let kind_name = function
  | Sumrate -> "sumrate"
  | Select -> "select"
  | Region -> "region"

let kind_of_string = function
  | "sumrate" -> Some Sumrate
  | "select" -> Some Select
  | "region" -> Some Region
  | _ -> None

type t = {
  kind : kind;
  power_db : float;
  gains_db : float * float * float;
  bound : Bidir.Bound.kind;
  protocol : Bidir.Protocol.t option;
  weights : int;
}

let db_ok x = Float.is_finite x && x >= -60. && x <= 60.

let make ~kind ?(power_db = 10.) ?(gains_db = (0., 5., 7.))
    ?(bound = Bidir.Bound.Inner) ?protocol ?(weights = 33) () =
  let g_ab, g_ar, g_br = gains_db in
  if not (db_ok power_db) then Error "power_db out of range [-60, 60] dB"
  else if not (db_ok g_ab && db_ok g_ar && db_ok g_br) then
    Error "gains out of range [-60, 60] dB"
  else if weights < 3 || weights > 513 then
    Error "weights out of range [3, 513]"
  else if kind = Region && protocol = None then
    Error "region query requires a protocol"
  else Ok { kind; power_db; gains_db; bound; protocol; weights }

let bound_name = function Bidir.Bound.Inner -> "inner" | Bidir.Bound.Outer -> "outer"

let bound_of_string = function
  | "inner" -> Some Bidir.Bound.Inner
  | "outer" -> Some Bidir.Bound.Outer
  | _ -> None

(* The cache key: 36 bytes, the IEEE bits of power_db, g_ab, g_ar and
   g_br (little-endian, bytes 0-31), then kind, bound, and a 16-bit
   field with the protocol (0 = all, then [Protocol.all] order from 1)
   above the 10-bit weights (3-513). Equal keys mean equal queries, and
   the bits keep -0. apart from 0., as the echo does. *)
let key q =
  let g_ab, g_ar, g_br = q.gains_db in
  let b = Bytes.create 36 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float q.power_db);
  Bytes.set_int64_le b 8 (Int64.bits_of_float g_ab);
  Bytes.set_int64_le b 16 (Int64.bits_of_float g_ar);
  Bytes.set_int64_le b 24 (Int64.bits_of_float g_br);
  Bytes.set_uint8 b 32 (match q.kind with Sumrate -> 0 | Select -> 1 | Region -> 2);
  Bytes.set_uint8 b 33
    (match q.bound with Bidir.Bound.Inner -> 0 | Bidir.Bound.Outer -> 1);
  let protocol =
    match q.protocol with
    | None -> 0
    | Some Bidir.Protocol.Dt -> 1
    | Some Bidir.Protocol.Naive -> 2
    | Some Bidir.Protocol.Mabc -> 3
    | Some Bidir.Protocol.Tdbc -> 4
    | Some Bidir.Protocol.Hbc -> 5
  in
  Bytes.set_uint16_le b 34 ((protocol lsl 10) lor q.weights);
  Bytes.unsafe_to_string b

(* ------------------------------------------------------------------ *)
(* JSON / parameter parsing                                            *)
(* ------------------------------------------------------------------ *)

let to_json q =
  let g_ab, g_ar, g_br = q.gains_db in
  Json.Obj
    [ ("kind", Json.String (kind_name q.kind));
      ("power_db", Json.Float q.power_db);
      ("g_ab", Json.Float g_ab);
      ("g_ar", Json.Float g_ar);
      ("g_br", Json.Float g_br);
      ("bound", Json.String (bound_name q.bound));
      ( "protocol",
        match q.protocol with
        | Some p -> Json.String (Bidir.Protocol.name p)
        | None -> Json.Null );
      ("weights", Json.Int q.weights);
    ]

(* Both front doors (URL parameters and JSON bodies) funnel through the
   same field-by-field builder so they accept exactly the same
   queries. [get] returns a field as a JSON scalar (URL parameters are
   [String]s), [Null] when it is absent. Numbers are taken as typed
   values. [text] is a field's text form (%.17g for a float): what is
   parsed where no typed reading applies, and what error messages
   quote. *)
let text = function
  | Json.String s -> s
  | Json.Int i -> string_of_int i
  | Json.Float f -> Printf.sprintf "%.17g" f
  | _ -> ""

exception Rejected of string

let reject fmt = Printf.ksprintf (fun e -> raise_notrace (Rejected e)) fmt

let field get name =
  match get name with
  | (Json.Null | Json.String _ | Json.Int _ | Json.Float _) as v -> v
  | _ -> reject "%s: unsupported type" name

let float_field get name dflt =
  match field get name with
  | Json.Null -> dflt
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | v -> (
    match float_of_string_opt (text v) with
    | Some f -> f
    | None -> reject "%s: not a number: %s" name (text v))

let int_field get name dflt =
  match field get name with
  | Json.Null -> dflt
  | Json.Int i -> i
  | v -> (
    match int_of_string_opt (text v) with
    | Some i -> i
    | None -> reject "%s: not an integer: %s" name (text v))

let build ~kind ~(get : string -> Json.t) =
  try
    let kind =
      match kind_of_string kind with
      | Some k -> k
      | None -> reject "unknown query kind: %s" kind
    in
    let power_db = float_field get "power_db" 10. in
    let g_ab = float_field get "g_ab" 0. in
    let g_ar = float_field get "g_ar" 5. in
    let g_br = float_field get "g_br" 7. in
    let bound =
      match field get "bound" with
      | Json.Null -> Bidir.Bound.Inner
      | v -> (
        match bound_of_string (text v) with
        | Some b -> b
        | None -> reject "bound: expected inner|outer, got %s" (text v))
    in
    let protocol =
      match field get "protocol" with
      | Json.Null -> None
      | v -> (
        match Bidir.Protocol.of_string (text v) with
        | Some p -> Some p
        | None -> reject "unknown protocol: %s" (text v))
    in
    let weights = int_field get "weights" 33 in
    make ~kind ~power_db ~gains_db:(g_ab, g_ar, g_br) ~bound ?protocol ~weights
      ()
  with Rejected e -> Error e

let known_field = function
  | "kind" | "power_db" | "g_ab" | "g_ar" | "g_br" | "bound" | "protocol"
  | "weights" ->
    true
  | _ -> false

let of_params ~kind params =
  match List.find_opt (fun (k, _) -> not (known_field k)) params with
  | Some (k, _) -> Error (Printf.sprintf "unknown parameter: %s" k)
  | None ->
    build ~kind ~get:(fun name ->
        match Http.assoc name params with Some v -> Json.String v | None -> Json.Null)

let of_json j =
  match j with
  | Json.Obj fields -> (
    match List.find_opt (fun (k, _) -> not (known_field k)) fields with
    | Some (k, _) -> Error (Printf.sprintf "unknown field: %s" k)
    | None -> (
      let get name = Option.value (Http.assoc name fields) ~default:Json.Null in
      match get "kind" with
      | (Json.String _ | Json.Int _ | Json.Float _) as v ->
        build ~kind:(text v) ~get
      | Json.Null -> Error "missing field: kind"
      | _ -> Error "kind: unsupported type"))
  | _ -> Error "query body must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(* Quantize to 1e-6 before rendering: coarse enough to absorb the
   ulp-level path dependence of warm LP solves (vertex dedup tolerance
   is 1e-7), fine enough for any rate in bits/use. [+. 0.] folds -0.
   into 0. so the sign never leaks into the rendering. *)
let q6 x = Json.Float ((Float.round (x *. 1e6) /. 1e6) +. 0.)

let scenario q =
  let g_ab, g_ar, g_br = q.gains_db in
  Bidir.Gaussian.scenario ~power_db:q.power_db
    ~gains:(Channel.Gains.of_db ~g_ab ~g_ar ~g_br)

let result_json (r : Bidir.Optimize.sum_rate_result) =
  Json.Obj
    [ ("protocol", Json.String (Bidir.Protocol.name r.protocol));
      ("bound", Json.String (bound_name r.bound_kind));
      ("sum_rate", q6 r.sum_rate);
      ("ra", q6 r.ra);
      ("rb", q6 r.rb);
      ("deltas", Json.List (Array.to_list (Array.map q6 r.deltas)));
    ]

let eval q =
  let scen = scenario q in
  match q.kind with
  | Sumrate -> (
    match q.protocol with
    | Some p -> result_json (Bidir.Optimize.sum_rate p q.bound scen)
    | None ->
      Json.Obj
        [ ( "results",
            Json.List
              (List.map result_json (Bidir.Optimize.all_sum_rates q.bound scen))
          );
        ])
  | Select ->
    let all = Bidir.Optimize.all_sum_rates q.bound scen in
    (* [Optimize.best_protocol]'s tie rule — earlier in [Protocol.all]
       wins unless strictly beaten — applied to the QUANTIZED sum
       rates: two protocols whose optima differ only by warm-solve ulp
       noise must select the same winner on every run, or the response
       bytes would depend on the daemon's history *)
    let quant x = Float.round (x *. 1e6) /. 1e6 in
    let best =
      List.fold_left
        (fun acc (r : Bidir.Optimize.sum_rate_result) ->
          if quant r.sum_rate > quant acc.Bidir.Optimize.sum_rate then r
          else acc)
        (List.hd all) (List.tl all)
    in
    Json.Obj
      [ ("best", result_json best);
        ( "sum_rates",
          Json.Obj
            (List.map
               (fun (r : Bidir.Optimize.sum_rate_result) ->
                 (Bidir.Protocol.name r.protocol, q6 r.sum_rate))
               all) );
      ]
  | Region ->
    let p = Option.get q.protocol in
    let bound = Bidir.Gaussian.bounds p q.bound scen in
    let vertices = Bidir.Rate_region.boundary ~weights:q.weights bound in
    let area = Numerics.Polygon.(area (down_closure vertices)) in
    Json.Obj
      [ ("protocol", Json.String (Bidir.Protocol.name p));
        ("bound", Json.String (bound_name q.bound));
        ("weights", Json.Int q.weights);
        ("area", q6 area);
        ( "vertices",
          Json.List
            (List.map
               (fun (v : Numerics.Vec2.t) -> Json.List [ q6 v.x; q6 v.y ])
               vertices) );
      ]
