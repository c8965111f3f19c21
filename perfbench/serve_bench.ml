(* The serve_hot workload and the serve layers of the ledger. *)

module Q = Serve.Query

type request = {
  query : int;  (* index into the query set *)
  raw : string;  (* the bytes sent *)
}

(* The fixed query set: the daemon's published pools, in kind order
   sumrate, select, region (about 100 distinct queries). *)
let kinds = [| Q.Sumrate; Q.Select; Q.Region |]

let query_set () =
  Array.of_list (List.concat_map (fun k -> Serve.Scenarios.pool k) (Array.to_list kinds))

let g17 = Printf.sprintf "%.17g"

let fields (q : Q.t) =
  let g_ab, g_ar, g_br = q.Q.gains_db in
  [ ("power_db", g17 q.Q.power_db); ("g_ab", g17 g_ab); ("g_ar", g17 g_ar);
    ("g_br", g17 g_br);
    ("bound", match q.Q.bound with Bidir.Bound.Inner -> "inner" | Bidir.Bound.Outer -> "outer") ]
  @ (match q.Q.protocol with Some p -> [ ("protocol", Bidir.Protocol.name p) ] | None -> [])
  @ [ ("weights", string_of_int q.Q.weights) ]

let path (q : Q.t) = "/v1/" ^ Q.kind_name q.Q.kind

let get_raw q =
  Http_client.get_request
    (path q ^ "?" ^ String.concat "&" (List.map (fun (k, v) -> k ^ "=" ^ v) (fields q)))

let post_raw q =
  let value k v = if k = "bound" || k = "protocol" then "\"" ^ v ^ "\"" else v in
  Http_client.post_request (path q)
    ("{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k (value k v)) (fields q)) ^ "}")

(* Both encodings of every query: entry [2i] is GET, [2i+1] POST. *)
let encodings qs =
  Array.init (2 * Array.length qs) (fun j ->
      let q = qs.(j / 2) in
      { query = j / 2; raw = (if j mod 2 = 0 then get_raw q else post_raw q) })

(* The seeded request stream: kind sumrate:select:region = 3:2:1,
   uniform within the kind, GET or POST with equal odds. *)
let stream ~seed qs reqs n =
  let st = Random.State.make [| seed |] in
  let by_kind =
    Array.map
      (fun k ->
        Array.of_list
          (List.filter (fun i -> qs.(i).Q.kind = k) (List.init (Array.length qs) Fun.id)))
      kinds
  in
  Array.init n (fun _ ->
      let r = Random.State.int st 6 in
      let k = if r < 3 then 0 else if r < 5 then 1 else 2 in
      let pool = by_kind.(k) in
      let qi = pool.(Random.State.int st (Array.length pool)) in
      let post = Random.State.bool st in
      reqs.((2 * qi) + if post then 1 else 0))

(* ---- the daemon --------------------------------------------------- *)

type daemon = {
  pid : int;
  fd : Unix.file_descr;
  conn : Http_client.conn;
}

let devnull () = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0

let start_daemon ~cli ~tag =
  Proc.ensure_work_dir ();
  let pf = Filename.concat Proc.work_dir (Printf.sprintf "port-%d-%s" (Unix.getpid ()) tag) in
  if Sys.file_exists pf then Sys.remove pf;
  let null = devnull () in
  let pid =
    Proc.spawn ~stdout:null ~stderr:null cli
      [ "serve"; "--domains"; "1"; "--port"; "0"; "--port-file"; pf ]
  in
  Unix.close null;
  let t0 = Proc.now_ns () in
  let rec wait_port () =
    if Sys.file_exists pf then begin
      let ic = open_in pf in
      let port = int_of_string (String.trim (input_line ic)) in
      close_in ic;
      Sys.remove pf;
      port
    end
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Proc.seconds_since t0 < 60. ->
        Unix.sleepf 0.001;
        wait_port ()
      | 0, _ -> failwith "daemon did not write its port file within 60 s"
      | _ ->
        Proc.forget pid;
        failwith "daemon exited before listening"
  in
  let port = wait_port () in
  let fd, conn = Http_client.connect ~port in
  { pid; fd; conn }

let stop_daemon d =
  (try ignore (Http_client.request d.conn (Http_client.post_request "/shutdown" ""))
   with _ -> ());
  (try Unix.close d.fd with Unix.Unix_error _ -> ());
  Proc.reap d.pid

(* Send every encoding once and check it: fills the response cache.
   Returns the number of mismatches. *)
let warm d reqs expected =
  Array.fold_left
    (fun bad r ->
      match Http_client.request d.conn r.raw with
      | Ok { Http_client.status = 200; body } when body = expected.(r.query) -> bad
      | _ -> bad + 1)
    0 reqs

(* ---- the timed loop ----------------------------------------------- *)

let span_names = [| "client.request"; "client.write"; "client.read" |]

(* requests per traced/untraced chunk and per ops_per_s window *)
let chunk = 1000

(* Closed loop over one keep-alive connection for [seconds]: one
   request per call, its body checked against [expected] once the
   clock has stopped. *)
let run_loop ?trace d stream expected ~seconds =
  let n = Array.length stream in
  let last = ref (Error "no request") in
  let op tr i =
    let raw = stream.(i mod n).raw in
    (last :=
       match tr with
       | None -> Http_client.request d.conn raw
       | Some _ ->
         Loop.span tr ~name:0 ~req:i (fun () ->
             let wrote =
               Loop.span tr ~name:1 ~req:i (fun () ->
                   try d.conn.Http_client.write raw; true with Unix.Unix_error _ -> false)
             in
             Loop.span tr ~name:2 ~req:i (fun () ->
                 if not wrote then Error "write"
                 else try Http_client.read_response d.conn with Unix.Unix_error _ -> Error "read")));
    1
  in
  let check i =
    match !last with
    | Ok { Http_client.status = 200; body } when body = expected.(stream.(i mod n).query) -> 0
    | _ -> 1
  in
  Loop.run ?trace ~chunk ~spans_per_call:(Array.length span_names) ~seconds ~op ~check ()

(* ---- ledger: serve layers, in process ---------------------------- *)

let decode (req : Serve.Http.request) =
  let kind = String.sub req.Serve.Http.path 4 (String.length req.Serve.Http.path - 4) in
  if req.Serve.Http.body = "" then Q.of_params ~kind req.Serve.Http.params
  else
    match Telemetry.Json.parse req.Serve.Http.body with
    | Ok (Telemetry.Json.Obj fs) ->
      Q.of_json (Telemetry.Json.Obj (("kind", Telemetry.Json.String kind) :: List.remove_assoc "kind" fs))
    | _ -> Error "bad body"

let parse_ok raw =
  match Serve.Http.parse raw with
  | Serve.Http.Complete (r, _) -> r
  | _ -> failwith "ledger: request does not parse"

let decode_ok req = match decode req with Ok q -> q | Error e -> failwith ("ledger: " ^ e)

(* [emit name value unit] for every serve-layer metric. *)
let ledger ~cli ~seed ~emit =
  let qs = query_set () in
  let reqs = encodings qs in
  let st = stream ~seed qs reqs 4096 in
  let raws = Array.map (fun r -> r.raw) st in
  let parsed = Array.map parse_ok raws in
  let decoded = Array.map decode_ok parsed in
  let in_process = ref 0. in
  let layer name ns =
    in_process := !in_process +. ns;
    emit name ns "ns"
  in
  layer "serve.http.parse_ns" (Proc.ns_per_call ~min_s:0.25 raws Serve.Http.parse);
  layer "serve.query.decode_ns" (Proc.ns_per_call ~min_s:0.25 parsed decode);
  emit "serve.query.key_ns" (Proc.ns_per_call ~min_s:0.25 decoded Q.key) "ns";
  (* cold evaluation, as the daemon's warm-up pays it *)
  let cold = Array.sub decoded 0 256 in
  let eval_ns = ref 0 in
  Array.iter
    (fun q ->
      Engine.Memo.clear_all ();
      let t0 = Proc.now_ns () in
      ignore (Sys.opaque_identity (Q.eval q));
      eval_ns := !eval_ns + (Proc.now_ns () - t0))
    cold;
  emit "serve.query.eval_ns" (float_of_int !eval_ns /. 256.) "ns";
  Engine.Memo.clear_all ();
  let expected = Array.map Serve.Service.respond qs in
  (* respond_batch builds the query key itself, so key_ns is not added
     to the in-process sum a second time *)
  layer "serve.service.hit_ns" (Proc.ns_per_call ~min_s:0.25 decoded (fun q -> Serve.Service.respond_batch [ q ]));
  let bodies = Array.map (fun r -> expected.(r.query)) st in
  layer "serve.http.response_ns" (Proc.ns_per_call ~min_s:0.25 bodies (fun b -> Serve.Http.response b));
  (* the daemon's per-request path replayed in process, for its GC cost *)
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let reps = 20 in
  for _ = 1 to reps do
    Array.iter
      (fun raw ->
        let q = decode_ok (parse_ok raw) in
        ignore (Sys.opaque_identity (Serve.Http.response (List.hd (Serve.Service.respond_batch [ q ])))))
      raws
  done;
  let n = float_of_int (reps * Array.length raws) in
  emit "serve.replay.minor_words_per_req" ((Gc.minor_words () -. w0) /. n) "words";
  emit "serve.replay.major_per_kreq"
    (float_of_int ((Gc.quick_stat ()).Gc.major_collections - m0) *. 1000. /. n) "count";
  (* a short closed loop against the real daemon, for its own counters *)
  let d = start_daemon ~cli ~tag:"ledger" in
  Fun.protect ~finally:(fun () -> stop_daemon d) @@ fun () ->
  if warm d reqs expected > 0 then failwith "ledger: daemon answers differ from Service.respond";
  let long = stream ~seed:(Proc.derive seed 1) qs reqs 65536 in
  let r = run_loop d long expected ~seconds:1.5 in
  if r.Loop.failed > 0 then failwith "ledger: failed requests in the daemon loop";
  let client_p50_us = 1e3 *. Numerics.Stats.median r.Loop.latencies_ms in
  let sent = Array.sub long 0 (min r.Loop.attempted (Array.length long)) in
  let mean f = Array.fold_left (fun a x -> a +. f x) 0. sent /. float_of_int (Array.length sent) in
  emit "serve.http.req_bytes" (mean (fun x -> float_of_int (String.length x.raw))) "bytes";
  emit "serve.http.resp_bytes"
    (mean (fun x -> float_of_int (String.length (Serve.Http.response expected.(x.query))))) "bytes";
  emit "serve.client_p50_us" client_p50_us "us";
  emit "serve.server.outside_us" (client_p50_us -. (!in_process /. 1e3)) "us";
  match Http_client.request d.conn (Http_client.get_request "/metrics") with
  | Ok { Http_client.status = 200; body } -> (
    match Telemetry.Json.parse body with
    | Ok j ->
      let get path =
        List.fold_left
          (fun acc k -> Option.bind acc (Telemetry.Json.member k))
          (Some j) path
      in
      let num path =
        match get path with
        | Some (Telemetry.Json.Int i) -> float_of_int i
        | Some (Telemetry.Json.Float f) -> f
        | _ -> failwith ("ledger: /metrics lacks " ^ String.concat "." path)
      in
      let hits = num [ "counters"; "serve.cache_hits" ] in
      let admitted = num [ "counters"; "serve.requests" ] in
      emit "serve.service.hit_ratio" (hits /. admitted) "ratio";
      emit "serve.service.admitted" admitted "count";
      emit "serve.service.batch_mean" (num [ "histograms"; "serve.batch_size"; "mean" ]) "count";
      emit "serve.server.request_p50_us"
        (1e6 *. num [ "histograms"; "serve.request_seconds"; "p50" ]) "us"
    | Error e -> failwith ("ledger: /metrics: " ^ e))
  | _ -> failwith "ledger: GET /metrics failed"
