(* The repository benchmark. See perfbench/README.md for what each
   workload measures and why.

   bench.exe run --workload W --seed N --seconds S --trace 0|1 --cli PATH
     One measured run of workload W. The last line of stdout is the
     result object; the line before it is a report with the host, the
     inputs, sample counts and the trace summary.
   bench.exe worker ...   the process a compute workload runs in
   bench.exe ledger ...   one group of per-layer timings *)

let workloads = [ "serve_hot"; "campaign_ergodic"; "simulate" ]

(* set-ups per run; setup_s is their median *)
let setups = 9

(* The percentile tail_ms reports, fixed per workload so that runs stay
   comparable: the highest that kept at least 10 samples beyond it
   (Stats.tail_per_mille) in every 10-second run on a 2-vCPU host, at
   its slowest about 90k requests, 170 cycles and 45 calls. A run
   with fewer samples beyond it is flagged in the report. *)
let tail_pm = function "serve_hot" -> 990 | "simulate" -> 900 | _ -> 750

let tail_info ~pm n beyond =
  Printf.sprintf "tail_ms is %s of %d samples, %d beyond it; the tail rule allows %s" (Stats.label pm) n
    beyond
    (match Stats.tail_per_mille n with
    | Some allowed when allowed >= pm -> "up to " ^ Stats.label allowed
    | Some allowed -> "only up to " ^ Stats.label allowed
    | None -> "no tail percentile")

type metric = { name : string; value : float; unit_ : string; samples : int }

let json_num f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else failwith "non-finite metric value"

let json_str s = Printf.sprintf "%S" s

(* ---- arguments ------------------------------------------------------ *)

let args = Hashtbl.create 8

let parse_args argv =
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | k :: _ -> failwith ("bad argument: " ^ k)
  in
  go argv

let arg ?default k =
  match (Hashtbl.find_opt args k, default) with
  | Some v, _ -> v
  | None, Some d -> d
  | None, None -> failwith ("missing --" ^ k)

let int_arg k = int_of_string (arg k)

(* ---- worker protocol: "m name value unit samples" lines ------------ *)

let emit_line name value unit_ samples =
  Printf.printf "m %s %s %s %d\n%!" name (json_num value) unit_ samples

let read_metrics ic =
  let acc = ref [] and extra = ref [] in
  let rec go () =
    match input_line ic with
    | "done" -> ()
    | line -> (
      match String.split_on_char ' ' line with
      | [ "m"; name; v; u; n ] ->
        acc := { name; value = float_of_string v; unit_ = u; samples = int_of_string n } :: !acc;
        go ()
      | "s" :: rest ->
        extra := String.concat " " rest :: !extra;
        go ()
      | _ -> failwith ("worker: unexpected line: " ^ line))
    | exception End_of_file -> failwith "worker exited without finishing"
  in
  go ();
  (List.rev !acc, List.rev !extra)

(* ---- worker ---------------------------------------------------------- *)

(* one file per workload, overwritten by each traced run *)
let spans_path workload = Filename.concat Proc.work_dir (Printf.sprintf "spans-%s.jsonl" workload)

let summary_lines tr =
  Printf.sprintf "%d spans recorded, %d dropped" (Trace.length tr) (Trace.dropped tr)
  :: List.map
    (fun (s : Trace.summary) ->
      Printf.sprintf "%s count=%d total_ms=%.3f self_ms=%.3f" s.Trace.span s.Trace.count
        (float_of_int s.Trace.total_ns *. 1e-6) (float_of_int s.Trace.self_ns *. 1e-6))
    (Trace.summarise tr)

let worker () =
  let workload = arg "workload" and seed = int_arg "seed" in
  let seconds = float_of_string (arg "seconds") and traced = arg "trace" = "1" in
  let domains = int_arg "domains" in
  let w =
    match workload with
    | "campaign_ergodic" -> Compute_bench.campaign ~seed ~domains
    | "simulate" -> Compute_bench.simulate ~seed
    | w -> failwith ("worker: unknown workload " ^ w)
  in
  w.Compute_bench.setup ();
  print_endline "ready";
  flush stdout;
  match input_line stdin with
  | "go" ->
    let trace = if traced then Some (Trace.create w.Compute_bench.span_names) else None in
    let o = Compute_bench.measure ?trace w ~seconds in
    let r = o.Compute_bench.loop in
    let lat = r.Loop.latencies_ms in
    let n = Array.length lat in
    emit_line "attempted" (float_of_int r.Loop.attempted) "count" 1;
    emit_line "failed" (float_of_int r.Loop.failed) "count" 1;
    emit_line "ops_per_s" r.Loop.ok_per_s "1/s" n;
    emit_line "p50_ms" (Numerics.Stats.median lat) "ms" n;
    let pm = tail_pm workload in
    let tail, beyond = Stats.tail ~pm lat in
    emit_line "tail_ms" tail "ms" n;
    Printf.printf "s %s\n" (tail_info ~pm n beyond);
    emit_line "peak_rss_mb" (Proc.peak_rss_mb 0) "MiB" 1;
    emit_line "gc.minor_words_per_op" o.Compute_bench.minor_words_per_op "words" n;
    emit_line "gc.major_per_kop" o.Compute_bench.major_per_kop "count" n;
    Option.iter
      (fun tr ->
        emit_line "trace.overhead" (r.Loop.traced_rate /. r.Loop.untraced_rate) "ratio" n;
        Proc.ensure_work_dir ();
        Trace.write_jsonl tr (spans_path workload);
        List.iter (fun l -> Printf.printf "s span %s\n" l) (summary_lines tr))
      trace;
    print_endline "done";
    flush stdout
  | _ -> ()
  | exception End_of_file -> ()

(* ---- ledger process ------------------------------------------------ *)

let ledger () =
  let seed = int_arg "seed" in
  let emit name value unit_ = emit_line name value unit_ 1 in
  (match arg "group" with
  | "serve" -> Proc.on_one_cpu (fun _ -> Serve_bench.ledger ~cli:(arg "cli") ~seed ~emit)
  | "campaign" -> Compute_bench.campaign_ledger ~seed ~domains:(int_arg "domains") ~emit
  | "simulate" -> Compute_bench.simulate_ledger ~seed ~emit
  | g -> failwith ("ledger: unknown group " ^ g));
  print_endline "done"

(* Run a child of this executable and collect its metric lines. *)
let child_metrics mode extra_args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Proc.spawn ~stdout:out_w Sys.executable_name (mode :: extra_args) in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let result = try Ok (read_metrics ic) with e -> Error e in
  close_in ic;
  Proc.reap pid;
  match result with Ok r -> r | Error e -> raise e

(* ---- one run of a workload ------------------------------------------ *)

type run = {
  attempted : int;
  failed : int;
  setup_ok : bool;  (* every set-up answer passed the gate *)
  e2e : metric list;
  layer : metric list;  (* traced runs only *)
  info : string list;
}

let serve_run ~cli ~seed ~seconds ~traced =
  Proc.on_one_cpu @@ fun cpu ->
  let qs = Serve_bench.query_set () in
  let reqs = Serve_bench.encodings qs in
  let expected = Array.map Serve.Service.respond qs in
  let stream = Serve_bench.stream ~seed qs reqs 65536 in
  let setup_s = Array.make setups 0. in
  let bad = ref 0 in
  let daemon = ref None in
  for k = 0 to setups - 1 do
    let t0 = Proc.now_ns () in
    let d = Serve_bench.start_daemon ~cli ~tag:(string_of_int k) in
    bad := !bad + Serve_bench.warm d reqs expected;
    setup_s.(k) <- Proc.seconds_since t0;
    if k < setups - 1 then Serve_bench.stop_daemon d else daemon := Some d
  done;
  let d = Option.get !daemon in
  let trace = if traced then Some (Trace.create Serve_bench.span_names) else None in
  let r = Serve_bench.run_loop ?trace d stream expected ~seconds in
  let rss = Proc.peak_rss_mb d.Serve_bench.pid in
  Serve_bench.stop_daemon d;
  let lat = r.Loop.latencies_ms in
  let n = Array.length lat in
  let pm = tail_pm "serve_hot" in
  let tail, beyond = Stats.tail ~pm lat in
  let e2e =
    [ { name = "ops_per_s"; value = r.Loop.ok_per_s; unit_ = "1/s"; samples = n };
      { name = "p50_ms"; value = Numerics.Stats.median lat; unit_ = "ms"; samples = n };
      { name = "tail_ms"; value = tail; unit_ = "ms"; samples = n };
      { name = "setup_s"; value = Numerics.Stats.median setup_s; unit_ = "s"; samples = setups };
      { name = "peak_rss_mb"; value = rss; unit_ = "MiB"; samples = 1 } ]
  in
  let layer, spans =
    match trace with
    | None -> ([], [])
    | Some tr ->
      Proc.ensure_work_dir ();
      Trace.write_jsonl tr (spans_path "serve_hot");
      ( [ { name = "trace.overhead"; value = r.Loop.traced_rate /. r.Loop.untraced_rate;
            unit_ = "ratio"; samples = n } ],
        List.map (fun l -> "span " ^ l) (summary_lines tr) )
  in
  { attempted = r.Loop.attempted; failed = r.Loop.failed; setup_ok = !bad = 0;
    e2e; layer;
    info = Printf.sprintf "client and daemon pinned to cpu %d" cpu :: tail_info ~pm n beyond :: spans }

let compute_run ~workload ~seed ~seconds ~traced ~domains =
  let setup_s = Array.make setups 0. in
  let result = ref None in
  for k = 0 to setups - 1 do
    let in_r, in_w = Unix.pipe ~cloexec:true () in
    let out_r, out_w = Unix.pipe ~cloexec:true () in
    let t0 = Proc.now_ns () in
    let pid =
      Proc.spawn ~stdin:in_r ~stdout:out_w Sys.executable_name
        [ "worker"; "--workload"; workload; "--seed"; string_of_int seed;
          "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0");
          "--domains"; string_of_int domains ]
    in
    Unix.close in_r;
    Unix.close out_w;
    let ic = Unix.in_channel_of_descr out_r and oc = Unix.out_channel_of_descr in_w in
    (match input_line ic with
    | "ready" -> setup_s.(k) <- Proc.seconds_since t0
    | l -> failwith ("worker: expected ready, got " ^ l)
    | exception End_of_file -> failwith "worker died during set-up");
    if k < setups - 1 then begin
      output_string oc "stop\n";
      close_out oc;
      close_in ic;
      Proc.reap pid
    end
    else begin
      output_string oc "go\n";
      flush oc;
      let r = try Ok (read_metrics ic) with e -> Error e in
      close_out oc;
      close_in ic;
      Proc.reap pid;
      result := Some (match r with Ok r -> r | Error e -> raise e)
    end
  done;
  let ms, info = Option.get !result in
  let find n = List.find (fun m -> m.name = n) ms in
  let count n = int_of_float (find n).value in
  let e2e_names = [ "ops_per_s"; "p50_ms"; "tail_ms" ] in
  let e2e =
    List.filter (fun m -> List.mem m.name e2e_names) ms
    @ [ { name = "setup_s"; value = Numerics.Stats.median setup_s; unit_ = "s"; samples = setups };
        find "peak_rss_mb" ]
  in
  let layer_names = [ "gc.minor_words_per_op"; "gc.major_per_kop"; "trace.overhead" ] in
  { attempted = count "attempted"; failed = count "failed"; setup_ok = true; e2e;
    layer = (if traced then List.filter (fun m -> List.mem m.name layer_names) ms else []);
    info }

(* Every traced run measures the whole ledger, each group in a fresh
   process, on inputs drawn from this run's seed. *)
let ledger_metrics ~cli ~seed ~domains =
  List.concat_map
    (fun group ->
      fst
        (child_metrics "ledger"
           [ "--group"; group; "--seed"; string_of_int seed; "--cli"; cli;
             "--domains"; string_of_int domains ]))
    [ "serve"; "campaign"; "simulate" ]

(* The metrics the result line carries, in the order BENCHMARK.json
   lists them. tail_ms goes to the report only: on a shared 2-vCPU
   host its run-to-run spread exceeded the largest bound allowed. *)
let end_to_end_names = [ "ops_per_s"; "p50_ms"; "peak_rss_mb"; "setup_s" ]

let per_layer_names =
  [ "serve.http.parse_ns"; "serve.http.response_ns"; "serve.query.decode_ns";
    "serve.query.key_ns"; "serve.query.eval_ns"; "serve.service.hit_ns";
    "serve.service.hit_ratio"; "serve.service.batch_mean"; "serve.server.request_p50_us";
    "serve.server.outside_us"; "serve.http.req_bytes"; "serve.http.resp_bytes";
    "channel.fading.draw_ns"; "bidir.gaussian.bounds_ns"; "bidir.optimize.sum_rate_ns";
    "bidir.rate_region.sum_rate_miss_ns"; "bidir.rate_region.sum_rate_hit_ns";
    "bidir.rate_region.sum_rate_nomemo_ns"; "linprog.solver.reoptimize_ns";
    "linprog.solver.alloc_words"; "bidir.rate_region.alloc_words";
    "engine.memo.weighted_hit_ratio"; "engine.pool.speedup"; "engine.pool.busy_s";
    "engine.pool.idle_s"; "engine.pool.imbalance"; "engine.pool.map_overhead_us";
    "campaign.runner.rep_ms"; "prob.rng.draw_ns"; "coding.bitvec.random_ns_per_kbit";
    "coding.crc.append_ns_per_kbit"; "coding.crc.check_ns_per_kbit";
    "coding.xor_relay.combine_ns_per_kbit"; "netsim.runner.self_ms";
    "netsim.runner.alloc_words_per_block"; "gc.minor_words_per_op"; "gc.major_per_kop";
    "trace.overhead" ]

let metric_json m = Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str m.name) (json_num m.value) (json_str m.unit_)

let run_workload () =
  let workload = arg "workload" and seed = int_arg "seed" in
  let seconds = float_of_string (arg "seconds") and traced = arg "trace" = "1" in
  let cli = arg "cli" in
  if not (List.mem workload workloads) then failwith ("unknown workload " ^ workload);
  let nproc = Proc.nproc () in
  let steal0, total0 = Proc.cpu_ticks () in
  let r =
    if workload = "serve_hot" then serve_run ~cli ~seed ~seconds ~traced
    else compute_run ~workload ~seed ~seconds ~traced ~domains:nproc
  in
  let layer =
    if not traced then []
    else begin
      let ledger = ledger_metrics ~cli ~seed ~domains:nproc in
      (* on serve_hot the per-operation GC cost is the daemon's request
         path, replayed in the serve ledger's process *)
      let renamed =
        if workload <> "serve_hot" then []
        else
          List.filter_map
            (fun m ->
              match m.name with
              | "serve.replay.minor_words_per_req" -> Some { m with name = "gc.minor_words_per_op" }
              | "serve.replay.major_per_kreq" -> Some { m with name = "gc.major_per_kop" }
              | _ -> None)
            ledger
      in
      ledger @ renamed @ r.layer
    end
  in
  let reported = r.e2e @ layer in
  let steal1, total1 = Proc.cpu_ticks () in
  let steal_share =
    if total1 > total0 then float_of_int (steal1 - steal0) /. float_of_int (total1 - total0) else 0.
  in
  let result_metrics =
    List.map
      (fun n ->
        match List.find_opt (fun m -> m.name = n) reported with
        | Some m -> m
        | None -> failwith ("no measurement for " ^ n))
      (if traced then per_layer_names else end_to_end_names)
  in
  let correct = r.setup_ok && r.failed = 0 in
  (* human-readable table on stderr *)
  Printf.eprintf "%s seed=%d trace=%b: %d attempted, %d failed, fail_rate=%g, host steal %.1f%%%s\n"
    workload seed traced r.attempted r.failed
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    (100. *. steal_share)
    (if r.setup_ok then "" else " (set-up answers failed the gate)");
  List.iter
    (fun m -> Printf.eprintf "  %-40s %14.6g %-8s n=%d\n" m.name m.value m.unit_ m.samples)
    reported;
  List.iter (fun l -> Printf.eprintf "  %s\n" l) r.info;
  let commit = arg ~default:"unknown" "commit" in
  Printf.printf
    "{\"report\": {\"workload\": %s, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \"host\": {\"nproc\": %d, \"recommended_domain_count\": %d, \"ocaml\": %s, \"commit\": %s, \"steal_share\": %s}, \"fail_rate\": %s, \"metrics\": [%s], \"info\": [%s]}}\n"
    (json_str workload) seed (json_num seconds) traced nproc (Domain.recommended_domain_count ())
    (json_str Sys.ocaml_version) (json_str commit) (json_num steal_share)
    (json_num (float_of_int r.failed /. float_of_int (max 1 r.attempted)))
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "{\"name\": %s, \"value\": %s, \"unit\": %s, \"samples\": %d}" (json_str m.name) (json_num m.value) (json_str m.unit_) m.samples)
          reported))
    (String.concat ", " (List.map json_str r.info));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    r.attempted r.failed (String.concat ", " (List.map metric_json result_metrics));
  if not correct then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: mode :: rest -> (
    parse_args rest;
    try
      match mode with
      | "run" -> run_workload ()
      | "worker" -> worker ()
      | "ledger" -> ledger ()
      | m -> failwith ("unknown mode " ^ m)
    with Failure msg ->
      Printf.eprintf "perfbench: %s\n%!" msg;
      exit 2)
  | _ ->
    prerr_endline "usage: bench.exe run|worker|ledger --workload W --seed N --seconds S --trace 0|1";
    exit 2
