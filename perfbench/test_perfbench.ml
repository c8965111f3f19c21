(* Tests of the benchmark's own code: percentiles and the tail rule,
   span self time, and the client's response framing. *)

open Perfbench

let close = Alcotest.float 1e-12

let test_percentile () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  let at pm = fst (Stats.tail ~pm xs) in
  Alcotest.check close "min" 1. (at 0);
  Alcotest.check close "median" 3. (at 500);
  Alcotest.check close "max" 5. (at 1000);
  (* position 0.9 * 4 = 3.6: between 4 and 5 *)
  Alcotest.check close "p90 interpolates" 4.6 (at 900);
  Alcotest.check close "median of an even count" 2.5 (fst (Stats.tail ~pm:500 [| 4.; 1.; 3.; 2. |]));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.quantile: empty sample") (fun () ->
      ignore (Stats.tail ~pm:500 [||]))

let test_tail_rule () =
  let pm n = Stats.tail_per_mille n in
  let opt = Alcotest.(option int) in
  Alcotest.check opt "1000 samples: p99 leaves exactly 10" (Some 990) (pm 1000);
  Alcotest.check opt "999 samples: p99 leaves 9, so p90" (Some 900) (pm 999);
  Alcotest.check opt "100 samples: p90 leaves exactly 10" (Some 900) (pm 100);
  Alcotest.check opt "99 samples: p75" (Some 750) (pm 99);
  Alcotest.check opt "20 samples: the median" (Some 500) (pm 20);
  Alcotest.check opt "19 samples: no tail" None (pm 19);
  Alcotest.check opt "a million samples stay at p99" (Some 990) (pm 1_000_000);
  Alcotest.(check string) "label" "p99" (Stats.label 990);
  Alcotest.(check string) "label" "p99.9" (Stats.label 999);
  let xs = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  let v, beyond = Stats.tail ~pm:990 xs in
  Alcotest.check close "value" 990.01 v;
  Alcotest.(check int) "reported beyond" 10 beyond;
  Alcotest.(check int) "ten samples really lie beyond it" 10
    (List.length (List.filter (fun x -> x > v) (Array.to_list xs)))

let test_self_time () =
  (* children overlap each other, stick out of the parent, and have a
     grandchild that must not be subtracted from the root *)
  Alcotest.(check int) "no children" 100 (Trace.self_time ~start:0 ~stop:100 []);
  Alcotest.(check int) "overlapping children count once" 70
    (Trace.self_time ~start:0 ~stop:100 [ (10, 30); (20, 40) ]);
  Alcotest.(check int) "clipped to the parent" 90
    (Trace.self_time ~start:0 ~stop:100 [ (90, 120) ]);
  Alcotest.(check int) "nested child inside a child" 80
    (Trace.self_time ~start:0 ~stop:100 [ (10, 30); (15, 20) ]);
  let tr = Trace.create ~capacity:16 [| "root"; "child"; "grandchild" |] in
  let root = Trace.enter tr ~name:0 ~req:7 ~now:0 in
  let c1 = Trace.enter tr ~name:1 ~req:7 ~now:10 in
  let g = Trace.enter tr ~name:2 ~req:7 ~now:12 in
  Trace.leave tr g ~now:18;
  Trace.leave tr c1 ~now:30;
  let c2 = Trace.enter tr ~name:1 ~req:7 ~now:50 in
  Trace.leave tr c2 ~now:70;
  Trace.leave tr root ~now:100;
  let by name = List.find (fun s -> s.Trace.span = name) (Trace.summarise tr) in
  Alcotest.(check int) "root self = 100 - 20 - 20" 60 (by "root").Trace.self_ns;
  Alcotest.(check int) "child self = (20 - 6) + 20" 34 (by "child").Trace.self_ns;
  Alcotest.(check int) "child count" 2 (by "child").Trace.count;
  Alcotest.(check int) "grandchild self" 6 (by "grandchild").Trace.self_ns;
  (* a full recorder drops rather than grows *)
  let small = Trace.create ~capacity:1 [| "x" |] in
  let a = Trace.enter small ~name:0 ~req:0 ~now:0 in
  let b = Trace.enter small ~name:0 ~req:0 ~now:1 in
  Trace.leave small b ~now:2;
  Trace.leave small a ~now:3;
  Alcotest.(check (pair int int)) "one kept, one dropped" (1, 1)
    (Trace.length small, Trace.dropped small)

(* A byte source that hands out [data] a few bytes per read. *)
let trickle data =
  let pos = ref 0 and step = ref 0 in
  let read buf off len =
    let n = min len (min (1 + (!step mod 3)) (String.length data - !pos)) in
    incr step;
    Bytes.blit_string data !pos buf off n;
    pos := !pos + n;
    n
  in
  Http_client.of_functions ~read ~write:(fun _ -> ())

let response body = Printf.sprintf "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: %d\r\n\r\n%s" (String.length body) body

let test_framing () =
  let b1 = "{\"a\":\"x\\r\\n\\r\\n\"}\r\n\r\nafter a blank line" and b2 = "{}" in
  let c = trickle (response b1 ^ response b2) in
  let body = function
    | Ok r -> r.Http_client.body
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "first body, read in pieces" b1 (body (Http_client.read_response c));
  Alcotest.(check string) "pipelined second body" b2 (body (Http_client.read_response c));
  Alcotest.(check bool) "EOF mid-response is an error" true
    (Result.is_error (Http_client.read_response (trickle "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort")));
  (match Http_client.parse (response "abc") with
  | Http_client.Complete (r, used) ->
    Alcotest.(check int) "status" 200 r.Http_client.status;
    Alcotest.(check int) "consumed exactly the response" (String.length (response "abc")) used
  | _ -> Alcotest.fail "complete response expected");
  Alcotest.(check bool) "missing Content-Length is invalid" true
    (match Http_client.parse "HTTP/1.1 200 OK\r\n\r\n" with Http_client.Invalid _ -> true | _ -> false);
  Alcotest.(check bool) "body not yet complete" true
    (Http_client.parse (String.sub (response "abcdef") 0 (String.length (response "abcdef") - 1))
     = Http_client.Incomplete)

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail rule" `Quick test_tail_rule ] );
      ("trace", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ("client", [ Alcotest.test_case "content-length framing" `Quick test_framing ]) ]
