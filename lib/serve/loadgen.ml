module Json = Telemetry.Json

type config = {
  host : string;
  port : int;
  clients : int;
  requests : int;
  rate : float;
  mix : Scenarios.mix;
  seed : int;
  connect_timeout : float;
  dump : string option;
  shutdown : bool;
}

let default_config =
  { host = "127.0.0.1";
    port = 8090;
    clients = 4;
    requests = 200;
    rate = 0.;
    mix = Scenarios.default_mix;
    seed = 1;
    connect_timeout = 10.;
    dump = None;
    shutdown = false;
  }

type result = {
  sent : int;
  ok : int;
  failed : int;
  wall_seconds : float;
  qps : float;
  p50 : float;
  p90 : float;
  p99 : float;
  server_counters : (string * int) list;
}

(* ------------------------------------------------------------------ *)
(* A tiny blocking HTTP/1.1 client                                     *)
(* ------------------------------------------------------------------ *)

type client = { fd : Unix.file_descr; mutable leftover : string }

let connect ~host ~port ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let rec go () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> { fd; leftover = "" }
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () < deadline then begin
        Unix.sleepf 0.05;
        go ()
      end
      else failwith (Printf.sprintf "connect %s:%d: timed out" host port)
  in
  go ()

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let find_sub hay needle from =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go from

(* Read one response off the connection: status code and body.
   Keep-alive framing via Content-Length (which our server always
   sends). *)
let read_response c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf c.leftover;
  c.leftover <- "";
  let chunk = Bytes.create 65536 in
  let head_end = ref (find_sub (Buffer.contents buf) "\r\n\r\n" 0) in
  while !head_end = None do
    let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
    if n = 0 then failwith "connection closed mid-response";
    Buffer.add_subbytes buf chunk 0 n;
    head_end := find_sub (Buffer.contents buf) "\r\n\r\n" 0
  done;
  let data = Buffer.contents buf in
  let he = Option.get !head_end in
  let head = String.sub data 0 he in
  let status =
    match String.split_on_char ' ' head with
    | _ :: code :: _ -> int_of_string (String.trim code)
    | _ -> failwith "bad status line"
  in
  let content_length =
    let lines = String.split_on_char '\n' head in
    let rec find = function
      | [] -> failwith "no content-length"
      | l :: rest -> (
        match String.index_opt l ':' with
        | Some i
          when String.lowercase_ascii (String.trim (String.sub l 0 i))
               = "content-length" ->
          int_of_string
            (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
        | _ -> find rest)
    in
    find lines
  in
  let body_start = he + 4 in
  let buf2 = Buffer.create (content_length + 16) in
  Buffer.add_substring buf2 data body_start (String.length data - body_start);
  while Buffer.length buf2 < content_length do
    let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
    if n = 0 then failwith "connection closed mid-body";
    Buffer.add_subbytes buf2 chunk 0 n
  done;
  let rest = Buffer.contents buf2 in
  let body = String.sub rest 0 content_length in
  c.leftover <- String.sub rest content_length (String.length rest - content_length);
  (status, body)

let request c req_string =
  let n = String.length req_string in
  let pos = ref 0 in
  while !pos < n do
    pos := !pos + Unix.write_substring c.fd req_string !pos (n - !pos)
  done;
  read_response c

(* The query key written to [--dump]: a readable rendering, injective
   like [Query.key], with every float as %.17g. *)
let dump_key (q : Query.t) =
  let g_ab, g_ar, g_br = q.gains_db in
  Printf.sprintf "%s|%s|%s|%d|%.17g|%.17g|%.17g|%.17g" (Query.kind_name q.kind)
    (match q.bound with Bidir.Bound.Inner -> "inner" | Bidir.Bound.Outer -> "outer")
    (match q.protocol with Some p -> Bidir.Protocol.name p | None -> "-")
    q.weights q.power_db g_ab g_ar g_br

(* Alternate the two front doors so both stay exercised: even request
   indices go as GET with URL parameters, odd as POST /v1/query with a
   JSON body. Both render the same canonical query. *)
let request_string ~host i (q : Query.t) =
  if i mod 2 = 0 then begin
    let g_ab, g_ar, g_br = q.gains_db in
    let target =
      Printf.sprintf
        "/v1/%s?power_db=%.17g&g_ab=%.17g&g_ar=%.17g&g_br=%.17g&bound=%s&weights=%d%s"
        (Query.kind_name q.kind) q.power_db g_ab g_ar g_br
        (match q.bound with Bidir.Bound.Inner -> "inner" | Bidir.Bound.Outer -> "outer")
        q.weights
        (match q.protocol with
        | Some p -> "&protocol=" ^ Bidir.Protocol.name p
        | None -> "")
    in
    Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n" target host
  end
  else
    let body = Json.to_string (Query.to_json q) in
    Printf.sprintf
      "POST /v1/query HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
      host (String.length body) body

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

type client_out = {
  co_ok : int;
  co_failed : int;
  co_log : (string * string) array;  (* query key, response body; "" = failed *)
}

let client_run cfg ~index ~count ~rng ~latency () =
  let per_client_rate =
    if cfg.rate > 0. then cfg.rate /. float_of_int cfg.clients else 0.
  in
  let log = Array.make count ("", "") in
  let ok = ref 0 and failed = ref 0 in
  let conn = ref None in
  let get_conn () =
    match !conn with
    | Some c -> c
    | None ->
      let c = connect ~host:cfg.host ~port:cfg.port ~timeout:cfg.connect_timeout in
      conn := Some c;
      c
  in
  for i = 0 to count - 1 do
    if per_client_rate > 0. then begin
      let u = Prob.Rng.float rng in
      Unix.sleepf (-.Float.log (1. -. u) /. per_client_rate)
    end;
    let q = Scenarios.pick rng cfg.mix in
    let key = dump_key q in
    match
      let c = get_conn () in
      let t0 = Unix.gettimeofday () in
      let status, body = request c (request_string ~host:cfg.host i q) in
      let dt = Unix.gettimeofday () -. t0 in
      (status, body, dt)
    with
    | 200, body, dt ->
      Telemetry.Histogram.observe latency dt;
      log.(i) <- (key, body);
      incr ok
    | _, _, _ ->
      log.(i) <- (key, "");
      incr failed
    | exception _ ->
      (* drop the connection and let the next request redial *)
      Option.iter disconnect !conn;
      conn := None;
      log.(i) <- (key, "");
      incr failed
  done;
  Option.iter disconnect !conn;
  ignore index;
  { co_ok = !ok; co_failed = !failed; co_log = log }

let fetch_server_counters cfg =
  match
    let c = connect ~host:cfg.host ~port:cfg.port ~timeout:cfg.connect_timeout in
    let _, body =
      request c
        (Printf.sprintf "GET /metrics HTTP/1.1\r\nHost: %s\r\n\r\n" cfg.host)
    in
    disconnect c;
    Json.parse body
  with
  | Ok j -> (
    match Json.member "counters" j with
    | Some (Json.Obj fields) ->
      List.filter_map
        (fun (k, v) ->
          match v with
          | Json.Int n
            when String.length k >= 6 && String.sub k 0 6 = "serve." ->
            Some (k, n)
          | _ -> None)
        fields
    | _ -> [])
  | Error _ | (exception _) -> []

let post_shutdown cfg =
  match
    let c = connect ~host:cfg.host ~port:cfg.port ~timeout:cfg.connect_timeout in
    let r =
      request c
        (Printf.sprintf
           "POST /shutdown HTTP/1.1\r\nHost: %s\r\nContent-Length: 0\r\n\r\n"
           cfg.host)
    in
    disconnect c;
    r
  with
  | _ -> ()
  | exception _ -> ()

let write_dump path (outs : client_out array) =
  let oc = open_out path in
  Array.iteri
    (fun client out ->
      Array.iteri
        (fun i (key, body) ->
          Printf.fprintf oc
            "{\"client\":%d,\"i\":%d,\"key\":%s,\"response\":%s}\n" client i
            (Json.to_string (Json.String key))
            (if body = "" then "null" else body))
        out.co_log)
    outs;
  close_out oc

let run cfg =
  if cfg.clients < 1 then invalid_arg "Serve.Loadgen.run: clients < 1";
  if cfg.requests < 0 then invalid_arg "Serve.Loadgen.run: requests < 0";
  let root = Prob.Rng.create ~seed:cfg.seed in
  let latency = Telemetry.Histogram.create () in
  let t0 = Unix.gettimeofday () in
  let domains =
    List.init cfg.clients (fun i ->
        let rng = Prob.Rng.split root in
        let count =
          (cfg.requests / cfg.clients)
          + if i < cfg.requests mod cfg.clients then 1 else 0
        in
        Domain.spawn (client_run cfg ~index:i ~count ~rng ~latency))
  in
  let outs = Array.of_list (List.map Domain.join domains) in
  let wall = Unix.gettimeofday () -. t0 in
  let server_counters = fetch_server_counters cfg in
  Option.iter (fun path -> write_dump path outs) cfg.dump;
  if cfg.shutdown then post_shutdown cfg;
  let ok = Array.fold_left (fun s o -> s + o.co_ok) 0 outs in
  let failed = Array.fold_left (fun s o -> s + o.co_failed) 0 outs in
  let p50, p90, p99 = Telemetry.Histogram.percentiles latency in
  { sent = ok + failed;
    ok;
    failed;
    wall_seconds = wall;
    qps = (if wall > 0. then float_of_int ok /. wall else 0.);
    p50;
    p90;
    p99;
    server_counters;
  }

let result_to_json cfg r =
  Json.Obj
    [ ("schema", Json.String "bidir-bench-serve/1");
      ( "config",
        Json.Obj
          [ ("host", Json.String cfg.host);
            ("port", Json.Int cfg.port);
            ("clients", Json.Int cfg.clients);
            ("requests", Json.Int cfg.requests);
            ("rate", Json.Float cfg.rate);
            ("mix", Json.String (Scenarios.mix_to_string cfg.mix));
            ("seed", Json.Int cfg.seed);
          ] );
      ("sent", Json.Int r.sent);
      ("ok", Json.Int r.ok);
      ("failed", Json.Int r.failed);
      ("wall_seconds", Json.Float r.wall_seconds);
      ("qps", Json.Float r.qps);
      ("latency_seconds",
       Json.Obj
         [ ("p50", Json.Float r.p50);
           ("p90", Json.Float r.p90);
           ("p99", Json.Float r.p99);
         ]);
      ( "server",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.server_counters)
      );
    ]
