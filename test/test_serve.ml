(* Tests for the serving plane: HTTP framing, query parsing, the
   memo-backed batch service, and an end-to-end socket smoke against a
   daemon running in another domain. *)

module Http = Serve.Http
module Query = Serve.Query
module Json = Telemetry.Json

(* ------------------------------------------------------------------ *)
(* HTTP framing                                                        *)
(* ------------------------------------------------------------------ *)

let test_http_parse_get () =
  let raw =
    "GET /v1/sumrate?power_db=10&g_ab=0&protocol=TDBC HTTP/1.1\r\n\
     Host: localhost\r\n\
     \r\n"
  in
  match Http.parse raw with
  | Http.Complete (r, consumed) ->
    Alcotest.(check string) "meth" "GET" r.Http.meth;
    Alcotest.(check string) "path" "/v1/sumrate" r.Http.path;
    Alcotest.(check (list (pair string string)))
      "params"
      [ ("power_db", "10"); ("g_ab", "0"); ("protocol", "TDBC") ]
      r.Http.params;
    Alcotest.(check string) "body" "" r.Http.body;
    Alcotest.(check int) "consumed everything" (String.length raw) consumed;
    Alcotest.(check (option string))
      "header lookup is case-insensitive" (Some "localhost")
      (Http.header r "HOST");
    Alcotest.(check bool) "keep-alive by default" false (Http.wants_close r)
  | Http.Incomplete -> Alcotest.fail "incomplete"
  | Http.Invalid m -> Alcotest.failf "invalid: %s" m

let test_http_parse_post_body () =
  let body = "{\"kind\":\"select\",\"power_db\":5}" in
  let raw =
    Printf.sprintf
      "POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body
  in
  match Http.parse raw with
  | Http.Complete (r, consumed) ->
    Alcotest.(check string) "meth" "POST" r.Http.meth;
    Alcotest.(check string) "body" body r.Http.body;
    Alcotest.(check int) "consumed" (String.length raw) consumed
  | _ -> Alcotest.fail "expected complete request"

let test_http_pipelined () =
  let one = "GET /healthz HTTP/1.1\r\n\r\n" in
  let raw = one ^ "GET /metrics HTTP/1.1\r\n\r\n" in
  match Http.parse raw with
  | Http.Complete (r, consumed) ->
    Alcotest.(check string) "first request" "/healthz" r.Http.path;
    Alcotest.(check int) "consumed only the first" (String.length one)
      consumed;
    let rest = String.sub raw consumed (String.length raw - consumed) in
    (match Http.parse rest with
    | Http.Complete (r2, _) ->
      Alcotest.(check string) "second request" "/metrics" r2.Http.path
    | _ -> Alcotest.fail "second request did not parse")
  | _ -> Alcotest.fail "first request did not parse"

let test_http_incomplete_and_invalid () =
  (match Http.parse "GET /x HTTP/1.1\r\nHost: a" with
  | Http.Incomplete -> ()
  | _ -> Alcotest.fail "truncated head should be Incomplete");
  (match
     Http.parse "POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
   with
  | Http.Incomplete -> ()
  | _ -> Alcotest.fail "short body should be Incomplete");
  (match Http.parse "FETCH\r\n\r\n" with
  | Http.Invalid _ -> ()
  | _ -> Alcotest.fail "bad request line should be Invalid");
  (match Http.parse "GET /x HTTP/2.0\r\n\r\n" with
  | Http.Invalid _ -> ()
  | _ -> Alcotest.fail "unsupported version should be Invalid");
  match
    Http.parse ~max_body:8
      "POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789"
  with
  | Http.Invalid _ -> ()
  | _ -> Alcotest.fail "oversized body should be Invalid"

let test_http_content_length_digits () =
  let post len =
    Printf.sprintf "POST /x HTTP/1.1\r\nContent-Length: %s\r\n\r\n%s" len
      (String.make 32 'x')
  in
  List.iter
    (fun len ->
      match Http.parse (post len) with
      | Http.Invalid _ -> ()
      | _ -> Alcotest.failf "Content-Length %S should be Invalid" len)
    [ "0x10"; "0b11"; "0o7"; "1_0"; "+5"; "-1"; ""; "1 0"; "1e3";
      "9999999999999999999" ];
  match Http.parse (post "016") with
  | Http.Complete (r, _) ->
    Alcotest.(check int) "leading zero is still decimal" 16
      (String.length r.Http.body)
  | _ -> Alcotest.fail "decimal Content-Length should parse"

let test_http_url_decode () =
  Alcotest.(check string)
    "percent and plus" "a b+c%" (Http.url_decode "a%20b%2Bc%25");
  Alcotest.(check string) "plus is space" "a b" (Http.url_decode "a+b")

let test_http_response_roundtrip () =
  let body = "{\"x\":1}" in
  let raw = Http.response body in
  Alcotest.(check bool) "status line" true
    (String.length raw > 15 && String.sub raw 0 15 = "HTTP/1.1 200 OK");
  let has_len =
    Printf.sprintf "Content-Length: %d" (String.length body)
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "content-length header" true (contains raw has_len);
  Alcotest.(check bool) "body at the end" true
    (String.sub raw (String.length raw - String.length body)
       (String.length body)
    = body)

(* ------------------------------------------------------------------ *)
(* Query parsing and evaluation                                        *)
(* ------------------------------------------------------------------ *)

let get_exn = function
  | Ok q -> q
  | Error e -> Alcotest.failf "unexpected query error: %s" e

let test_query_params_roundtrip () =
  let q =
    get_exn
      (Query.of_params ~kind:"region"
         [ ("power_db", "5");
           ("g_ab", "1");
           ("g_ar", "4");
           ("g_br", "6");
           ("bound", "outer");
           ("protocol", "MABC");
           ("weights", "17");
         ])
  in
  (* the JSON echo round-trips to the same canonical key *)
  let q2 = get_exn (Query.of_json (Query.to_json q)) in
  Alcotest.(check string) "params/json same key" (Query.key q) (Query.key q2)

let test_query_defaults_and_validation () =
  let q = get_exn (Query.of_params ~kind:"sumrate" []) in
  let dflt = get_exn (Query.make ~kind:Query.Sumrate ()) in
  Alcotest.(check string) "defaults" (Query.key dflt) (Query.key q);
  let expect_error = function
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "expected a validation error"
  in
  expect_error (Query.of_params ~kind:"sumrate" [ ("power_db", "999") ]);
  expect_error (Query.of_params ~kind:"sumrate" [ ("power_db", "lots") ]);
  expect_error (Query.of_params ~kind:"sumrate" [ ("volume", "11") ]);
  expect_error (Query.of_params ~kind:"region" []);
  (* region requires a protocol *)
  expect_error (Query.of_params ~kind:"dance" []);
  expect_error
    (Query.of_json (Json.Obj [ ("power_db", Json.Int 1) ]) (* no kind *))

let test_query_eval_deterministic () =
  (* same query, same bytes — including through a cleared cache *)
  let q = get_exn (Query.make ~kind:Query.Select ~power_db:5. ()) in
  let a = Json.to_string (Query.eval q) in
  Engine.Memo.clear_all ();
  let b = Json.to_string (Query.eval q) in
  Alcotest.(check string) "eval byte-stable across cache clears" a b

(* ------------------------------------------------------------------ *)
(* Service: memo-backed batching                                       *)
(* ------------------------------------------------------------------ *)

let hits () = Telemetry.Metrics.value (Telemetry.Metrics.counter "serve.cache_hits")
let misses () = Telemetry.Metrics.value (Telemetry.Metrics.counter "serve.cache_misses")

let test_service_cache_and_batches () =
  Engine.Memo.clear_all ();
  let q1 = get_exn (Query.make ~kind:Query.Sumrate ~power_db:0. ()) in
  let q2 = get_exn (Query.make ~kind:Query.Sumrate ~power_db:10. ()) in
  let h0 = hits () and m0 = misses () in
  (* a batch with an internal duplicate: the duplicate is neither a
     hit nor a miss, and both copies get the same body *)
  let cold = Serve.Service.respond_batch [ q1; q2; q1 ] in
  (match cold with
  | [ b1; b2; b3 ] ->
    Alcotest.(check string) "duplicate shares the body" b1 b3;
    Alcotest.(check bool) "distinct queries differ" true (b1 <> b2)
  | l -> Alcotest.failf "expected 3 bodies, got %d" (List.length l));
  Alcotest.(check int) "no hits on a cold cache" 0 (hits () - h0);
  Alcotest.(check int) "two unique misses" 2 (misses () - m0);
  (* the same batch again: all hits, same bytes *)
  let again = Serve.Service.respond_batch [ q1; q2; q1 ] in
  Alcotest.(check int) "three hits when warm" 3 (hits () - h0);
  Alcotest.(check int) "no new misses" 2 (misses () - m0);
  Alcotest.(check (list string)) "warm bytes equal cold bytes" cold again;
  Alcotest.(check bool) "cache populated" true (Serve.Service.cache_length () >= 2);
  (* single-query front door agrees with the batch *)
  Alcotest.(check string) "respond = respond_batch head"
    (List.nth again 0) (Serve.Service.respond q1)

let test_service_batch_matches_sequential () =
  Engine.Memo.clear_all ();
  let pool = Serve.Scenarios.check_pool () in
  let batched = Serve.Service.respond_batch pool in
  Engine.Memo.clear_all ();
  let sequential = List.map Serve.Service.respond pool in
  Alcotest.(check (list string)) "batched = sequential" sequential batched

let test_service_envelope_shape () =
  let q = get_exn (Query.make ~kind:Query.Sumrate ()) in
  match Json.parse (Serve.Service.respond q) with
  | Error m -> Alcotest.failf "body is not JSON: %s" m
  | Ok j ->
    Alcotest.(check bool) "schema tag" true
      (Json.member "schema" j = Some (Json.String "bidir-serve/1"));
    Alcotest.(check bool) "query echo present" true
      (Json.member "query" j <> None);
    Alcotest.(check bool) "result present" true (Json.member "result" j <> None)

let test_scenarios_pick_deterministic () =
  let keys seed =
    let rng = Prob.Rng.create ~seed in
    List.init 50 (fun _ ->
        Query.key (Serve.Scenarios.pick rng Serve.Scenarios.default_mix))
  in
  Alcotest.(check (list string)) "same seed, same stream" (keys 7) (keys 7);
  Alcotest.(check bool) "different seeds diverge" true (keys 7 <> keys 8)

(* ------------------------------------------------------------------ *)
(* End-to-end: daemon in a domain, raw socket client                   *)
(* ------------------------------------------------------------------ *)

let recv_response sock buf =
  (* read until the Content-Length promise is met *)
  let chunk = Bytes.create 4096 in
  let rec go acc =
    match
      let marker = "\r\n\r\n" in
      let rec find i =
        if i + 4 > String.length acc then None
        else if String.sub acc i 4 = marker then Some i
        else find (i + 1)
      in
      find 0
    with
    | Some head_end ->
      let head = String.sub acc 0 head_end in
      let len =
        List.fold_left
          (fun acc line ->
            match String.index_opt line ':' with
            | Some i
              when String.lowercase_ascii (String.sub line 0 i)
                   = "content-length" ->
              int_of_string
                (String.trim
                   (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> acc)
          0
          (String.split_on_char '\n' head)
      in
      let need = head_end + 4 + len in
      if String.length acc >= need then (
        let body = String.sub acc (head_end + 4) len in
        let leftover =
          String.sub acc need (String.length acc - need)
        in
        buf := leftover;
        (head, body))
      else begin
        let n = Unix.read sock chunk 0 (Bytes.length chunk) in
        if n = 0 then Alcotest.fail "connection closed mid-response";
        go (acc ^ Bytes.sub_string chunk 0 n)
      end
    | None ->
      let n = Unix.read sock chunk 0 (Bytes.length chunk) in
      if n = 0 then Alcotest.fail "connection closed mid-head";
      go (acc ^ Bytes.sub_string chunk 0 n)
  in
  go !buf

let send_all sock s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write sock b off (Bytes.length b - off))
  in
  go 0

let test_server_end_to_end () =
  let port_file = Filename.temp_file "bidir-test-serve" ".port" in
  Sys.remove port_file;
  let daemon =
    Domain.spawn (fun () ->
        Serve.Server.run
          { Serve.Server.default_config with
            port = 0;
            port_file = Some port_file;
            quiet = true;
          })
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove port_file with Sys_error _ -> ())
  @@ fun () ->
  (* wait for the daemon to publish its ephemeral port *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec read_port () =
    match
      let ic = open_in port_file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> int_of_string (String.trim (input_line ic)))
    with
    | port -> port
    | exception _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "daemon never wrote its port file"
      else begin
        Unix.sleepf 0.02;
        read_port ()
      end
  in
  let port = read_port () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let buf = ref "" in
  (* healthz *)
  send_all sock "GET /healthz HTTP/1.1\r\n\r\n";
  let head, body = recv_response sock buf in
  Alcotest.(check bool) "healthz 200" true
    (String.length head >= 12 && String.sub head 9 3 = "200");
  (match Json.parse body with
  | Ok j -> Alcotest.(check bool) "healthz ok flag" true
              (Json.member "ok" j = Some (Json.Bool true))
  | Error m -> Alcotest.failf "healthz body: %s" m);
  (* two pipelined queries: a GET and the equivalent POST must answer
     in order, with byte-identical result objects *)
  let post_body = "{\"kind\":\"sumrate\",\"power_db\":5,\"protocol\":\"TDBC\"}" in
  send_all sock
    ("GET /v1/sumrate?power_db=5&protocol=TDBC HTTP/1.1\r\n\r\n"
    ^ Printf.sprintf "POST /v1/query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
        (String.length post_body) post_body);
  let _, body_get = recv_response sock buf in
  let _, body_post = recv_response sock buf in
  Alcotest.(check string) "GET and POST framing agree" body_get body_post;
  (* a malformed query is a 400, not a closed connection *)
  send_all sock "GET /v1/sumrate?power_db=lots HTTP/1.1\r\n\r\n";
  let head, _ = recv_response sock buf in
  Alcotest.(check bool) "bad query is 400" true (String.sub head 9 3 = "400");
  send_all sock "GET /nowhere HTTP/1.1\r\n\r\n";
  let head, _ = recv_response sock buf in
  Alcotest.(check bool) "unknown path is 404" true (String.sub head 9 3 = "404");
  (* shutdown: daemon answers, then exits; it served 2 query requests *)
  send_all sock "POST /shutdown HTTP/1.1\r\n\r\n";
  let head, _ = recv_response sock buf in
  Alcotest.(check bool) "shutdown 200" true (String.sub head 9 3 = "200");
  let served = Domain.join daemon in
  Alcotest.(check int) "query requests served" 2 served

(* ------------------------------------------------------------------ *)
(* Reference implementations                                           *)
(* ------------------------------------------------------------------ *)

(* These share no code with what they check: a parser built from
   [String.split_on_char] and [String.trim], a decoder that reads every
   field as text, and a key that renders every float as %.17g. *)
module Reference = struct
  let hex_val c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None

  let url_decode s =
    let n = String.length s in
    let b = Buffer.create n in
    let i = ref 0 in
    while !i < n do
      (match s.[!i] with
      | '+' -> Buffer.add_char b ' '
      | '%' when !i + 2 < n -> (
        match (hex_val s.[!i + 1], hex_val s.[!i + 2]) with
        | Some hi, Some lo ->
          Buffer.add_char b (Char.chr ((hi * 16) + lo));
          i := !i + 2
        | _ -> Buffer.add_char b '%')
      | c -> Buffer.add_char b c);
      incr i
    done;
    Buffer.contents b

  let decimal_length v =
    let n = String.length v in
    if n = 0 || n > 18 || not (String.for_all (fun c -> c >= '0' && c <= '9') v)
    then None
    else Some (int_of_string v)

  let parse_params q =
    if q = "" then []
    else
      String.split_on_char '&' q
      |> List.filter_map (fun kv ->
             if kv = "" then None
             else
               match String.index_opt kv '=' with
               | Some i ->
                 Some
                   ( url_decode (String.sub kv 0 i),
                     url_decode (String.sub kv (i + 1) (String.length kv - i - 1)) )
               | None -> Some (url_decode kv, ""))

  let find_head_end s =
    let n = String.length s in
    let rec go i =
      if i + 3 >= n then None
      else if String.sub s i 4 = "\r\n\r\n" then Some i
      else go (i + 1)
    in
    go 0

  let parse_header_line line =
    match String.index_opt line ':' with
    | None -> None
    | Some i ->
      Some
        ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
          String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

  let parse ?(max_head = 16 * 1024) ?(max_body = 64 * 1024) s =
    match find_head_end s with
    | None ->
      if String.length s > max_head then Http.Invalid "header block too large"
      else Http.Incomplete
    | Some head_end -> (
      if head_end > max_head then Http.Invalid "header block too large"
      else
        match String.split_on_char '\n' (String.sub s 0 head_end) with
        | [] -> Http.Invalid "empty request"
        | req_line :: header_lines -> (
          let req_line = String.trim req_line in
          match String.split_on_char ' ' req_line with
          | [ meth; target; version ]
            when version = "HTTP/1.1" || version = "HTTP/1.0" -> (
            let headers =
              List.filter_map (fun l -> parse_header_line (String.trim l)) header_lines
            in
            let path, params =
              match String.index_opt target '?' with
              | Some i ->
                ( String.sub target 0 i,
                  parse_params (String.sub target (i + 1) (String.length target - i - 1)) )
              | None -> (target, [])
            in
            let content_length =
              match List.assoc_opt "content-length" headers with
              | None -> Ok 0
              | Some v -> (
                match decimal_length (String.trim v) with
                | Some n -> Ok n
                | None -> Error ("bad content-length: " ^ v))
            in
            match content_length with
            | Error e -> Http.Invalid e
            | Ok len ->
              if len > max_body then Http.Invalid "body too large"
              else
                let body_start = head_end + 4 in
                if String.length s < body_start + len then Http.Incomplete
                else
                  Http.Complete
                    ( { Http.meth; path; params; version; headers;
                        body = String.sub s body_start len },
                      body_start + len ))
          | _ -> Http.Invalid ("bad request line: " ^ req_line)))

  let response ~status ~content_type ~close body =
    Printf.sprintf "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%s\r\n%s"
      status (Http.status_reason status) content_type (String.length body)
      (if close then "Connection: close\r\n" else "")
      body

  let key (q : Query.t) =
    let g_ab, g_ar, g_br = q.gains_db in
    Printf.sprintf "%s|%s|%s|%d|%.17g|%.17g|%.17g|%.17g" (Query.kind_name q.kind)
      (match q.bound with Bidir.Bound.Inner -> "inner" | Bidir.Bound.Outer -> "outer")
      (match q.protocol with Some p -> Bidir.Protocol.name p | None -> "-")
      q.weights q.power_db g_ab g_ar g_br

  let build ~kind ~get =
    let ( let* ) = Result.bind in
    let float_field name dflt =
      match get name with
      | None -> Ok dflt
      | Some (Error e) -> Error e
      | Some (Ok s) -> (
        match float_of_string_opt s with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "%s: not a number: %s" name s))
    in
    let* kind =
      match Query.kind_of_string kind with
      | Some k -> Ok k
      | None -> Error (Printf.sprintf "unknown query kind: %s" kind)
    in
    let* power_db = float_field "power_db" 10. in
    let* g_ab = float_field "g_ab" 0. in
    let* g_ar = float_field "g_ar" 5. in
    let* g_br = float_field "g_br" 7. in
    let* bound =
      match get "bound" with
      | None -> Ok Bidir.Bound.Inner
      | Some (Error e) -> Error e
      | Some (Ok "inner") -> Ok Bidir.Bound.Inner
      | Some (Ok "outer") -> Ok Bidir.Bound.Outer
      | Some (Ok s) -> Error (Printf.sprintf "bound: expected inner|outer, got %s" s)
    in
    let* protocol =
      match get "protocol" with
      | None -> Ok None
      | Some (Error e) -> Error e
      | Some (Ok s) -> (
        match Bidir.Protocol.of_string s with
        | Some p -> Ok (Some p)
        | None -> Error (Printf.sprintf "unknown protocol: %s" s))
    in
    let* weights =
      match get "weights" with
      | None -> Ok 33
      | Some (Error e) -> Error e
      | Some (Ok s) -> (
        match int_of_string_opt s with
        | Some i -> Ok i
        | None -> Error (Printf.sprintf "weights: not an integer: %s" s))
    in
    Query.make ~kind ~power_db ~gains_db:(g_ab, g_ar, g_br) ~bound ?protocol ~weights ()

  let known = [ "kind"; "power_db"; "g_ab"; "g_ar"; "g_br"; "bound"; "protocol"; "weights" ]

  let of_params ~kind params =
    match List.find_opt (fun (k, _) -> not (List.mem k known)) params with
    | Some (k, _) -> Error (Printf.sprintf "unknown parameter: %s" k)
    | None -> build ~kind ~get:(fun name -> Option.map Result.ok (List.assoc_opt name params))

  let of_json = function
    | Json.Obj fields -> (
      match List.find_opt (fun (k, _) -> not (List.mem k known)) fields with
      | Some (k, _) -> Error (Printf.sprintf "unknown field: %s" k)
      | None -> (
        let get name =
          match List.assoc_opt name fields with
          | None | Some Json.Null -> None
          | Some (Json.String s) -> Some (Ok s)
          | Some (Json.Int i) -> Some (Ok (string_of_int i))
          | Some (Json.Float f) -> Some (Ok (Printf.sprintf "%.17g" f))
          | Some _ -> Some (Error (Printf.sprintf "%s: unsupported type" name))
        in
        match get "kind" with
        | Some (Ok kind) -> build ~kind ~get
        | Some (Error e) -> Error e
        | None -> Error "missing field: kind"))
    | _ -> Error "query body must be a JSON object"
end

(* ------------------------------------------------------------------ *)
(* Parser fuzzing against the reference                                *)
(* ------------------------------------------------------------------ *)

let show_result = function
  | Http.Incomplete -> "Incomplete"
  | Http.Invalid m -> Printf.sprintf "Invalid %S" m
  | Http.Complete (r, n) ->
    let pairs l = String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%S=%S" k v) l) in
    Printf.sprintf "Complete(%S %S [%s] %S [%s] body=%S, %d)" r.Http.meth r.Http.path
      (pairs r.Http.params) r.Http.version (pairs r.Http.headers) r.Http.body n

(* Parse a connection buffer to the end, request by request, with both
   parsers; every step must agree, consumed byte counts included. *)
let same_as_reference ?max_head ?max_body raw =
  let rec go s =
    let got = Http.parse ?max_head ?max_body s in
    let want = Reference.parse ?max_head ?max_body s in
    if got <> want then
      QCheck.Test.fail_reportf "input %S:@ got %s@ want %s" s (show_result got)
        (show_result want)
    else
      match got with
      | Http.Complete (_, n) when n > 0 -> go (String.sub s n (String.length s - n))
      | _ -> true
  in
  go raw

let gen_request =
  let open QCheck.Gen in
  let pick l = oneofl l in
  let token = pick [ "power_db"; "g_ab"; "Protocol"; "x"; ""; "a b"; "k%20y"; "v+w" ] in
  let value =
    pick [ "10"; "-0"; "5.5"; "TDBC"; ""; "%41%42"; "%4"; "%zz"; "a+b"; "%"; "%2B%25"; "1e1" ]
  in
  let param =
    map3
      (fun k has_eq v -> if has_eq then k ^ "=" ^ v else k)
      token bool value
  in
  let query =
    pick [ ""; "?"; "?&" ] >>= fun lead ->
    list_size (0 -- 4) param >|= fun ps ->
    match (lead, ps) with
    | "", [] -> ""
    | "", _ -> "?" ^ String.concat "&" ps
    | _ -> lead ^ String.concat "&" ps
  in
  let space = pick [ ""; " "; "  "; "\t"; " \t " ] in
  let eol = pick [ "\r\n"; "\n" ] in
  let header_name = pick [ "Host"; "HOST"; "host"; "Content-Type"; "X-Trace"; "Connection" ] in
  let header_value = pick [ "localhost"; "close"; "Keep-Alive"; "a:b"; ""; "x y" ] in
  let header =
    map (fun (((s1, n), (s2, v)), (s3, e)) -> s1 ^ n ^ s2 ^ ":" ^ s3 ^ v ^ s2 ^ e)
      (pair (pair (pair space header_name) (pair space header_value)) (pair space eol))
  in
  let meth = pick [ "GET"; "POST"; "get"; "PUT"; "DELETE" ] in
  let path = pick [ "/v1/sumrate"; "/v1/query"; "/healthz"; "/"; "/a%20b" ] in
  let version = pick [ "HTTP/1.1"; "HTTP/1.0"; "HTTP/1.1"; "HTTP/2.0" ] in
  let body = pick [ ""; "{\"kind\":\"select\"}"; "x"; "\r\n\r\n" ] in
  let length_header body =
    pick
      [ "";
        Printf.sprintf "Content-Length: %d\r\n" (String.length body);
        Printf.sprintf "content-length:  %d \r\n" (String.length body);
        Printf.sprintf "CONTENT-LENGTH: 0%d\r\n" (String.length body);
      ]
  in
  let one =
    meth >>= fun m ->
    path >>= fun p ->
    query >>= fun q ->
    version >>= fun v ->
    space >>= fun lead ->
    eol >>= fun e ->
    list_size (0 -- 4) header >>= fun hs ->
    body >>= fun b ->
    length_header b >|= fun cl ->
    lead ^ m ^ " " ^ p ^ q ^ " " ^ v ^ e ^ String.concat "" hs ^ cl ^ "\r\n" ^ b
  in
  list_size (1 -- 3) one >>= fun reqs ->
  let all = String.concat "" reqs in
  (* sometimes cut the stream short, as a partial read would *)
  frequency [ (3, return all); (1, int_bound (String.length all) >|= String.sub all 0) ]

let prop_parse_well_formed =
  QCheck.Test.make ~count:2000 ~name:"Http.parse = reference on well-formed requests"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_request)
    same_as_reference

let prop_parse_arbitrary =
  (* bytes drawn mostly from the characters the parser looks at *)
  let noise =
    QCheck.Gen.(
      string_size (0 -- 80)
        ~gen:
          (frequency
             [ (4, oneofl [ '\r'; '\n'; ' '; ':'; '?'; '&'; '='; '%'; '+'; '1'; 'A' ]);
               (1, char);
             ]))
  in
  let gen =
    QCheck.Gen.(
      pair (oneofl [ ""; "GET / HTTP/1.1\r\n"; "POST /x HTTP/1.0\r\nContent-Length: 3" ]) noise
      >|= fun (prefix, noise) -> prefix ^ noise)
  in
  QCheck.Test.make ~count:3000 ~name:"Http.parse never raises, = reference on arbitrary bytes"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun s ->
      same_as_reference s
      && same_as_reference ~max_head:24 ~max_body:2 s
      && same_as_reference ~max_head:0 ~max_body:0 s)

(* ------------------------------------------------------------------ *)
(* Query key against the %.17g text key; decode against the reference  *)
(* ------------------------------------------------------------------ *)

let gen_db =
  let open QCheck.Gen in
  frequency
    [ (3, float_range (-60.) 60.);
      (2, oneofl [ 0.; -0.; 10.; -60.; 60.; 5.; 7.; 1e-300; -1e-300; 0.1 ]);
      (1, int_range (-60) 60 >|= float_of_int);
    ]

let gen_query =
  let open QCheck.Gen in
  oneofl [ Query.Sumrate; Query.Select; Query.Region ] >>= fun kind ->
  oneofl [ Bidir.Bound.Inner; Bidir.Bound.Outer ] >>= fun bound ->
  (if kind = Query.Region then map Option.some (oneofl Bidir.Protocol.all)
   else opt (oneofl Bidir.Protocol.all)) >>= fun protocol ->
  int_range 3 513 >>= fun weights ->
  gen_db >>= fun power_db ->
  triple gen_db gen_db gen_db >|= fun gains_db ->
  get_exn (Query.make ~kind ~power_db ~gains_db ~bound ?protocol ~weights ())

(* a second query near the first: the same one, one field changed, a
   float one ulp away, or a zero with the other sign *)
let gen_neighbour (q : Query.t) =
  let open QCheck.Gen in
  let g_ab, g_ar, g_br = q.gains_db in
  let remake ?(kind = q.kind) ?(power_db = q.power_db) ?(gains_db = q.gains_db)
      ?(bound = q.bound) ?(protocol = q.protocol) ?(weights = q.weights) () =
    match Query.make ~kind ~power_db ~gains_db ~bound ?protocol ~weights () with
    | Ok q' -> q'
    | Error _ -> q
  in
  let nudge x =
    oneofl
      [ Float.succ x; Float.pred x; (if x = 0. then -.x else x); -.x; x ]
  in
  frequency
    [ (2, return q);
      (1, gen_query);
      (2, nudge q.power_db >|= fun power_db -> remake ~power_db ());
      (2, triple (nudge g_ab) (nudge g_ar) (nudge g_br) >|= fun gains_db -> remake ~gains_db ());
      (1, oneofl [ Query.Sumrate; Query.Select; Query.Region ] >|= fun kind -> remake ~kind ());
      (1, oneofl [ Bidir.Bound.Inner; Bidir.Bound.Outer ] >|= fun bound -> remake ~bound ());
      (1, opt (oneofl Bidir.Protocol.all) >|= fun protocol -> remake ~protocol ());
      (1, int_range 3 513 >|= fun weights -> remake ~weights ());
    ]

let prop_key_oracle =
  QCheck.Test.make ~count:3000 ~name:"Query.key equal iff the %.17g text keys are"
    (QCheck.make
       ~print:(fun (a, b) -> Reference.key a ^ " / " ^ Reference.key b)
       QCheck.Gen.(gen_query >>= fun q -> pair (return q) (gen_neighbour q)))
    (fun (a, b) ->
      String.length (Query.key a) = 36
      && Bool.equal (Query.key a = Query.key b) (Reference.key a = Reference.key b))

let show_decoded = function
  | Ok q -> "Ok " ^ Reference.key q
  | Error e -> "Error " ^ e

let same_decoded got want =
  let got = show_decoded got and want = show_decoded want in
  got = want || QCheck.Test.fail_reportf "got %s@ want %s" got want

let field_names =
  [ "kind"; "power_db"; "g_ab"; "g_ar"; "g_br"; "bound"; "protocol"; "weights"; "volume"; "Kind" ]

let text_values =
  [ "5"; "-0"; "-0.0"; "0"; "33"; "33.0"; "33.5"; "1e1"; "0x10"; "1_0"; " 5"; ""; "inf"; "nan";
    "-61"; "60"; "1e17"; "inner"; "outer"; "OUTER"; "hbc"; "HBC"; "MABC"; "x"; "select"; "region";
    "sumrate" ]

(* mostly valid kinds and known fields, so that most cases get past the
   first checks and reach the field conversions *)
let gen_fields value =
  QCheck.Gen.(
    frequency [ (9, oneofl (List.filteri (fun i _ -> i < 8) field_names)); (1, oneofl field_names) ]
    >>= fun name -> value >|= fun v -> (name, v))

let prop_of_params_reference =
  let gen =
    QCheck.Gen.(
      pair
        (frequency [ (9, oneofl [ "sumrate"; "select"; "region" ]); (1, return "dance") ])
        (list_size (0 -- 4) (gen_fields (oneofl text_values))))
  in
  QCheck.Test.make ~count:3000 ~name:"Query.of_params = reference decoder"
    (QCheck.make
       ~print:(fun (k, ps) ->
         k ^ " " ^ String.concat "&" (List.map (fun (a, b) -> a ^ "=" ^ b) ps))
       gen)
    (fun (kind, params) ->
      same_decoded (Query.of_params ~kind params) (Reference.of_params ~kind params))

let prop_of_json_reference =
  let value =
    QCheck.Gen.(
      frequency
        [ (3, oneofl text_values >|= fun s -> Json.String s);
          (2, oneofl [ 0; 5; -5; 33; 3; 513; 514; 61; max_int ] >|= fun i -> Json.Int i);
          ( 3,
            oneofl
              [ 33.; 33.5; -0.; 0.; 5.; 1e16; 1e17; 99999999999999984.; 1e-5; Float.nan;
                Float.infinity; Float.neg_infinity; 60.; Float.succ 60.; 4.9e-324 ]
            >|= fun f -> Json.Float f );
          (1, float_range (-70.) 70. >|= fun f -> Json.Float f);
          (1, oneofl [ Json.Null; Json.Bool true; Json.List []; Json.Obj [] ]);
        ])
  in
  let kind =
    QCheck.Gen.(
      frequency
        [ (8, oneofl [ "sumrate"; "select"; "region" ] >|= fun k -> [ ("kind", Json.String k) ]);
          (1, return []);
          (1, value >|= fun v -> [ ("kind", v) ]);
        ])
  in
  let gen =
    QCheck.Gen.(
      pair kind (list_size (0 -- 4) (gen_fields value)) >|= fun (k, fs) -> Json.Obj (fs @ k))
  in
  QCheck.Test.make ~count:3000 ~name:"Query.of_json = reference decoder"
    (QCheck.make ~print:Json.to_string gen)
    (fun j -> same_decoded (Query.of_json j) (Reference.of_json j))

let test_response_framing () =
  List.iter
    (fun (status, close, len) ->
      let body = String.make len 'x' in
      Alcotest.(check string)
        (Printf.sprintf "status %d, close %b, %d bytes" status close len)
        (Reference.response ~status ~content_type:"text/plain" ~close body)
        (Http.response ~status ~content_type:"text/plain" ~close body))
    (List.concat_map
       (fun status ->
         List.concat_map
           (fun close -> List.map (fun len -> (status, close, len)) [ 0; 1; 9; 10; 99; 100; 520; 65536 ])
           [ false; true ])
       [ 200; 400; 404; 405; 413; 500; 999 ]);
  Alcotest.(check string) "defaults"
    (Reference.response ~status:200 ~content_type:"application/json" ~close:false "{}")
    (Http.response "{}")

let test_decode_pins () =
  let decoded what expect got =
    Alcotest.(check string) what expect (show_decoded got)
  in
  let json fields = Query.of_json (Json.Obj (("kind", Json.String "region") :: ("protocol", Json.String "HBC") :: fields)) in
  decoded "weights 33.0 accepted" "Ok region|inner|HBC|33|10|0|5|7"
    (json [ ("weights", Json.Float 33.) ]);
  decoded "weights 33.5 rejected" "Error weights: not an integer: 33.5"
    (json [ ("weights", Json.Float 33.5) ]);
  decoded "weights from JSON text 33.0" "Ok region|inner|HBC|33|10|0|5|7"
    (match Json.parse "{\"kind\":\"region\",\"protocol\":\"HBC\",\"weights\":33.0}" with
    | Ok j -> Query.of_json j
    | Error e -> Error e);
  decoded "an Int in a float field" "Ok region|inner|HBC|33|5|0|5|7"
    (json [ ("power_db", Json.Int 5) ]);
  decoded "unknown field" "Error unknown field: volume" (json [ ("volume", Json.Int 1) ]);
  decoded "unknown parameter" "Error unknown parameter: volume"
    (Query.of_params ~kind:"sumrate" [ ("volume", "11") ]);
  decoded "numeric bound" "Error bound: expected inner|outer, got 1"
    (json [ ("bound", Json.Int 1) ]);
  decoded "float bound" "Error bound: expected inner|outer, got 0.5"
    (json [ ("bound", Json.Float 0.5) ]);
  decoded "boolean bound" "Error bound: unsupported type" (json [ ("bound", Json.Bool true) ]);
  decoded "non-number in params" "Error power_db: not a number: lots"
    (Query.of_params ~kind:"sumrate" [ ("power_db", "lots") ]);
  decoded "numeric kind" "Error unknown query kind: 2"
    (Query.of_json (Json.Obj [ ("kind", Json.Int 2) ]));
  (* -0 keeps its sign through decode, key and echo *)
  let neg = get_exn (Query.of_params ~kind:"sumrate" [ ("power_db", "-0") ]) in
  let pos = get_exn (Query.of_params ~kind:"sumrate" [ ("power_db", "0") ]) in
  Alcotest.(check bool) "-0 and 0 get distinct keys" true (Query.key neg <> Query.key pos);
  Alcotest.(check string) "-0 is echoed as -0.0"
    "{\"kind\":\"sumrate\",\"power_db\":-0.0,\"g_ab\":0.0,\"g_ar\":5.0,\"g_br\":7.0,\"bound\":\"inner\",\"protocol\":null,\"weights\":33}"
    (Json.to_string (Query.to_json neg));
  let echoed =
    match Json.parse (Json.to_string (Query.to_json neg)) with
    | Ok j -> get_exn (Query.of_json j)
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "-0 round-trips through the echo" (Query.key neg) (Query.key echoed)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_parse_well_formed; prop_parse_arbitrary; prop_key_oracle; prop_of_params_reference;
      prop_of_json_reference ]

let suites =
  [ ( "serve.http",
      [ Alcotest.test_case "GET with params" `Quick test_http_parse_get;
        Alcotest.test_case "POST with body" `Quick test_http_parse_post_body;
        Alcotest.test_case "pipelined requests" `Quick test_http_pipelined;
        Alcotest.test_case "incomplete and invalid" `Quick
          test_http_incomplete_and_invalid;
        Alcotest.test_case "url decoding" `Quick test_http_url_decode;
        Alcotest.test_case "response serialization" `Quick
          test_http_response_roundtrip;
        Alcotest.test_case "content-length digits" `Quick
          test_http_content_length_digits;
        Alcotest.test_case "response = reference framing" `Quick
          test_response_framing;
      ] );
    ( "serve.query",
      [ Alcotest.test_case "params/json round-trip" `Quick
          test_query_params_roundtrip;
        Alcotest.test_case "defaults and validation" `Quick
          test_query_defaults_and_validation;
        Alcotest.test_case "eval byte-stable" `Quick
          test_query_eval_deterministic;
        Alcotest.test_case "decode decisions pinned" `Quick test_decode_pins;
      ] );
    ("serve.properties", qcheck_cases);
    ( "serve.service",
      [ Alcotest.test_case "cache hits, duplicates, batches" `Quick
          test_service_cache_and_batches;
        Alcotest.test_case "batched equals sequential" `Quick
          test_service_batch_matches_sequential;
        Alcotest.test_case "envelope shape" `Quick test_service_envelope_shape;
        Alcotest.test_case "scenario pick deterministic" `Quick
          test_scenarios_pick_deterministic;
      ] );
    ( "serve.daemon",
      [ Alcotest.test_case "end-to-end over a socket" `Quick
          test_server_end_to_end;
      ] );
  ]
