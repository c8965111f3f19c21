(* The campaign_ergodic and simulate workloads, run inside a worker
   process, and the rate-region, LP, pool, coding and netsim layers of
   the ledger. *)

let power_db = 10.
let gains = Channel.Gains.paper_fig4

(* ---- workloads ---------------------------------------------------- *)

(* One workload as the worker drives it: [setup] runs before the
   worker reports ready; [op] and [check] are a call and its gate, as
   Loop.run takes them. *)
type workload = {
  setup : unit -> unit;
  op : Trace.t option -> int -> int;
  check : int -> int;
  span_names : string array;
  spans_per_op : int;
}

(* GC counters of the work wrapped in [metered]. They see the calling
   domain only, so each workload wraps the single-domain part of its
   operations: campaign's untimed domains = 1 re-run, simulate's
   blocks. *)
let gc_words = ref 0.
let gc_majors = ref 0
let gc_ops = ref 0

let major () = (Gc.quick_stat ()).Gc.major_collections

(* [f ()], counted as [n] operations *)
let metered n f =
  let w0 = Gc.minor_words () and m0 = major () in
  let r = f () in
  gc_words := !gc_words +. (Gc.minor_words () -. w0);
  gc_majors := !gc_majors + (major () - m0);
  gc_ops := !gc_ops + n;
  r

let reps_per_call = 64

let campaign ~seed ~domains =
  let w = Campaign.Workloads.ergodic () in
  let run ~domains i =
    Campaign.Runner.run
      (Campaign.Runner.default_config ~seed:(Proc.derive seed i) ~domains
         ~replications:reps_per_call ())
      w
  in
  let render r = Telemetry.Json.to_string (Campaign.Runner.result_to_json r) in
  let last = ref "" in
  let op tr i =
    Loop.span tr ~name:0 ~req:i (fun () ->
        Loop.span tr ~name:1 ~req:i Engine.Memo.clear_all;
        let r = Loop.span tr ~name:2 ~req:i (fun () -> run ~domains i) in
        last := Loop.span tr ~name:3 ~req:i (fun () -> render r));
    reps_per_call
  in
  { setup =
      (fun () ->
        Engine.Pool.prewarm ~domains ();
        ignore (op None (-1)));
    op;
    check =
      (fun i ->
        (* the same seed at one domain must render the same bytes *)
        Engine.Memo.clear_all ();
        let reference = metered reps_per_call (fun () -> render (run ~domains:1 i)) in
        if reference = !last then 0 else reps_per_call);
    span_names =
      [| "campaign.call"; "engine.memo.clear_all"; "campaign.runner.run";
         "campaign.result_to_json" |];
    spans_per_op = 4;
  }

let block_symbols = 10_000
let protocols = Array.of_list Bidir.Protocol.all

let scenario () = Bidir.Gaussian.scenario ~power_db ~gains

(* Block [b] runs protocol [b mod 5]; set-up blocks use negative [b]. *)
let protocol_of b =
  let k = Array.length protocols in
  protocols.(((b mod k) + k) mod k)

(* Whole-bit payload sizes of one block of [p]: the optimal rates
   floored to bits, as the simulator sends them. *)
let payload_bits p =
  let r = Bidir.Optimize.sum_rate p Bidir.Bound.Inner (scenario ()) in
  let n = float_of_int block_symbols in
  (int_of_float (r.Bidir.Optimize.ra *. n), int_of_float (r.Bidir.Optimize.rb *. n), r)

(* One timed call runs a cycle: one block of each protocol, so that
   per-call latency is unimodal rather than a mix of five block
   sizes. *)
let simulate ~seed =
  let k = Array.length protocols in
  let config b =
    Netsim.Runner.default_config ~blocks:1 ~block_symbols ~seed:(Proc.derive seed b)
      ~protocol:(protocol_of b) ~power_db ~gains ()
  in
  let last = Array.make k None in
  let failed j =
    match last.(j) with
    | None -> true
    | Some r ->
      let m = r.Netsim.Runner.metrics in
      let a, b, _ = payload_bits protocols.(j) in
      let floored = float_of_int (a + b) /. float_of_int block_symbols in
      let thr = Netsim.Metrics.throughput m in
      (* static channel, adaptive schedule: every bit arrives, so the
         throughput is the optimal sum rate floored to whole bits *)
      not
        (Netsim.Metrics.bit_errors m = 0
        && Netsim.Metrics.failed_deliveries m = 0
        && Float.abs (thr -. floored) <= 1e-9
        && Float.abs (thr -. r.Netsim.Runner.analytic_mean_sum_rate)
           <= 2. /. float_of_int block_symbols)
  in
  let check _ =
    let bad = ref 0 in
    for j = 0 to k - 1 do
      if failed j then incr bad;
      last.(j) <- None
    done;
    !bad
  in
  let op tr i =
    Loop.span tr ~name:0 ~req:i (fun () ->
        metered k (fun () ->
            for j = 0 to k - 1 do
              last.(j) <-
                Loop.span tr ~name:1 ~req:i (fun () ->
                    Some (Netsim.Runner.run (config ((i * k) + j))))
            done));
    k
  in
  { setup = (fun () -> ignore (op None (-1)); ignore (check (-1)));
    op;
    check;
    span_names = [| "simulate.cycle"; "netsim.runner.run" |];
    spans_per_op = 1 + k;
  }

(* ---- the worker's timed phase ----------------------------------- *)

type outcome = {
  loop : Loop.result;
  minor_words_per_op : float;
  major_per_kop : float;
}

(* Run the workload for [seconds] of timed calls, one call per
   ops_per_s window and per traced/untraced chunk; the GC counters
   start from zero here, after set-up. *)
let measure ?trace w ~seconds =
  gc_words := 0.;
  gc_majors := 0;
  gc_ops := 0;
  let loop =
    Loop.run ?trace ~chunk:1 ~spans_per_call:w.spans_per_op ~seconds ~op:w.op ~check:w.check ()
  in
  let gops = float_of_int (max 1 !gc_ops) in
  { loop;
    minor_words_per_op = !gc_words /. gops;
    major_per_kop = float_of_int !gc_majors *. 1000. /. gops;
  }

(* ---- ledger: rate region, LP, pool, campaign --------------------- *)

let words_per xs f =
  let w0 = Gc.minor_words () in
  Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
  (Gc.minor_words () -. w0) /. float_of_int (Array.length xs)

let counter name = Option.value ~default:0 (List.assoc_opt name (Telemetry.Metrics.counters ()))

let histogram name =
  match List.assoc_opt name (Telemetry.Metrics.histograms ()) with
  | Some h -> h
  | None -> failwith ("ledger: no histogram " ^ name)

let campaign_ledger ~seed ~domains ~emit =
  let n = 20_000 in
  let fading = Channel.Fading.create ~rng_seed:(Proc.derive seed 0) ~mean:gains () in
  let draws = Array.make n gains in
  let t0 = Proc.now_ns () in
  for i = 0 to n - 1 do
    draws.(i) <- Channel.Fading.draw fading
  done;
  emit "channel.fading.draw_ns" (float_of_int (Proc.now_ns () - t0) /. float_of_int n) "ns";
  let power = Numerics.Float_utils.db_to_lin power_db in
  let scen = Array.map (fun g -> Bidir.Gaussian.scenario_lin ~power ~gains:g) draws in
  let bound s = Bidir.Gaussian.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner s in
  emit "bidir.gaussian.bounds_ns" (Proc.ns_per_call scen bound) "ns";
  let bounds = Array.map bound scen in
  Engine.Memo.clear_all ();
  emit "bidir.optimize.sum_rate_ns"
    (Proc.ns_per_call scen (Bidir.Optimize.sum_rate Bidir.Protocol.Tdbc Bidir.Bound.Inner)) "ns";
  Engine.Memo.clear_all ();
  emit "bidir.rate_region.sum_rate_miss_ns" (Proc.ns_per_call bounds Bidir.Rate_region.max_sum_rate) "ns";
  emit "bidir.rate_region.sum_rate_hit_ns" (Proc.ns_per_call bounds Bidir.Rate_region.max_sum_rate) "ns";
  emit "bidir.rate_region.sum_rate_nomemo_ns"
    (Engine.Memo.with_enabled false (fun () -> Proc.ns_per_call bounds Bidir.Rate_region.max_sum_rate))
    "ns";
  Engine.Memo.clear_all ();
  emit "bidir.rate_region.alloc_words" (words_per bounds Bidir.Rate_region.max_sum_rate) "words";
  (* the warm kernel on the production LP: rebuild per faded bound
     (untimed), then time the solve alone *)
  let nvars, constrs = Bidir.Rate_region.lp_constraints bounds.(0) in
  let solver = Linprog.Solver.create ~nvars ~constrs in
  let c = Array.make nvars 0. and x = Array.make (nvars + 1) 0. in
  c.(0) <- 1. +. 1e-7;
  c.(1) <- 1.;
  let rows = Array.map (fun b -> snd (Bidir.Rate_region.lp_constraints b)) bounds in
  let empty = ref 0 in
  for _ = 1 to 1000 do
    let a = Proc.now_ns () in
    empty := !empty + (Proc.now_ns () - a)
  done;
  let clock_ns = float_of_int !empty /. 1000. in
  let solve_ns = ref 0 in
  Array.iter
    (fun constrs ->
      Linprog.Solver.rebuild solver ~constrs;
      let a = Proc.now_ns () in
      ignore (Sys.opaque_identity (Linprog.Solver.reoptimize_into solver ~c ~x));
      solve_ns := !solve_ns + (Proc.now_ns () - a))
    rows;
  emit "linprog.solver.reoptimize_ns" (Float.max 0. ((float_of_int !solve_ns /. float_of_int n) -. clock_ns)) "ns";
  (* allocation of warm re-solves on one loaded system, objectives
     alternating so that every solve pivots *)
  let objectives = Array.init 1000 (fun i -> if i mod 2 = 0 then (1. +. 1e-7, 1.) else (1., 2.)) in
  emit "linprog.solver.alloc_words"
    (words_per objectives (fun (wa, wb) ->
         c.(0) <- wa;
         c.(1) <- wb;
         Linprog.Solver.reoptimize_into solver ~c ~x))
    "words";
  (* the campaign itself at one domain and at [domains] *)
  let w = Campaign.Workloads.ergodic () in
  let calls = 3 in
  let rate d =
    let t = ref 0 in
    for i = 1 to calls do
      Engine.Memo.clear_all ();
      let a = Proc.now_ns () in
      ignore
        (Campaign.Runner.run
           (Campaign.Runner.default_config ~seed:(Proc.derive seed (100 + i)) ~domains:d
              ~replications:reps_per_call ())
           w);
      t := !t + (Proc.now_ns () - a)
    done;
    float_of_int (calls * reps_per_call) /. (float_of_int !t *. 1e-9)
  in
  Engine.Pool.prewarm ~domains ();
  let r1 = rate 1 in
  Telemetry.Metrics.reset ();
  let rn = rate domains in
  emit "engine.pool.speedup" (rn /. r1) "ratio";
  emit "engine.pool.speedup_domains" (float_of_int domains) "count";
  let hits = counter "memo.rate_region.weighted.hits"
  and misses = counter "memo.rate_region.weighted.misses" in
  emit "engine.memo.weighted_hit_ratio"
    (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses))
    "ratio";
  emit "engine.memo.weighted_lookups" (float_of_int (hits + misses)) "count";
  emit "engine.pool.busy_s" (Telemetry.Histogram.sum (histogram "engine.pool.busy_seconds")) "s";
  emit "engine.pool.idle_s" (Telemetry.Histogram.sum (histogram "engine.pool.idle_seconds")) "s";
  emit "engine.pool.imbalance" (Telemetry.Histogram.mean (histogram "engine.pool.chunk_imbalance")) "ratio";
  emit "campaign.runner.rep_ms"
    (1e3 *. Telemetry.Histogram.quantile (histogram "campaign.shard_seconds") 0.5) "ms";
  let items = Array.init domains Fun.id in
  let samples =
    Array.init 2000 (fun _ ->
        let a = Proc.now_ns () in
        ignore (Sys.opaque_identity (Engine.Pool.map_array ~domains succ items));
        float_of_int (Proc.now_ns () - a) *. 1e-3)
  in
  emit "engine.pool.map_overhead_us" (Numerics.Stats.median samples) "us"

(* ---- ledger: RNG, coding, netsim ---------------------------------- *)

let simulate_ledger ~seed ~emit =
  let rng = Prob.Rng.create ~seed:(Proc.derive seed 0) in
  let draws = Array.make 1_000_000 () in
  emit "prob.rng.draw_ns" (Proc.ns_per_call draws (fun () -> Prob.Rng.bool rng)) "ns";
  let sizes = Array.map payload_bits protocols in
  let lens = Array.concat (Array.to_list (Array.map (fun (a, b, _) -> [| a; b |]) sizes)) in
  let kbits = float_of_int (Array.fold_left ( + ) 0 lens) /. 1000. in
  let reps = 20 in
  let per_kbit f =
    let t0 = Proc.now_ns () in
    for _ = 1 to reps do
      Array.iteri (fun i len -> ignore (Sys.opaque_identity (f i len))) lens
    done;
    float_of_int (Proc.now_ns () - t0) /. (kbits *. float_of_int reps)
  in
  let vecs = Array.map (Coding.Bitvec.random rng) lens in
  let framed = Array.map Coding.Crc.append_crc16 vecs in
  let random = per_kbit (fun _ len -> Coding.Bitvec.random rng len) in
  let append = per_kbit (fun i _ -> Coding.Crc.append_crc16 vecs.(i)) in
  let check = per_kbit (fun i _ -> Coding.Crc.check_crc16 framed.(i)) in
  (* combine pairs a with b, so charge it per bit of the pair *)
  let combine = per_kbit (fun i _ -> if i mod 2 = 0 then Coding.Xor_relay.combine vecs.(i) vecs.(i + 1) else vecs.(i)) in
  emit "coding.bitvec.random_ns_per_kbit" random "ns";
  emit "coding.crc.append_ns_per_kbit" append "ns";
  emit "coding.crc.check_ns_per_kbit" check "ns";
  emit "coding.xor_relay.combine_ns_per_kbit" combine "ns";
  (* block time, and what the coding calls a block makes should cost:
     per relayed block (relay decodes both) the payloads are drawn and
     framed once each, and each direction checks both payloads, xors
     and re-frames them, checks the relay word and xors it back out;
     NAIVE forwards each payload and checks it once *)
  let coding_ms (a, b, _) p =
    let m = max a b in
    let k x = float_of_int x /. 1000. in
    let relayed = p <> Bidir.Protocol.Naive in
    let ns =
      if relayed then
        (random *. k (a + b)) +. (append *. k (a + b + (2 * m)))
        +. (check *. k ((2 * (a + b)) + (2 * m))) +. (combine *. k (4 * m))
      else (random +. append +. check) *. k (a + b)
    in
    ns *. 1e-6
  in
  let blocks = 100 in
  let w0 = Gc.minor_words () in
  let block_ns = ref 0 and coding = ref 0. in
  for i = 0 to blocks - 1 do
    let p = protocols.(i mod Array.length protocols) in
    let cfg =
      Netsim.Runner.default_config ~blocks:1 ~block_symbols ~seed:(Proc.derive seed (i + 1))
        ~protocol:p ~power_db ~gains ()
    in
    let a = Proc.now_ns () in
    ignore (Sys.opaque_identity (Netsim.Runner.run cfg));
    block_ns := !block_ns + (Proc.now_ns () - a);
    coding := !coding +. coding_ms sizes.(i mod Array.length protocols) p
  done;
  emit "netsim.runner.alloc_words_per_block" ((Gc.minor_words () -. w0) /. float_of_int blocks) "words";
  let block_ms = float_of_int !block_ns *. 1e-6 /. float_of_int blocks in
  emit "netsim.runner.block_ms" block_ms "ms";
  emit "netsim.runner.self_ms" (block_ms -. (!coding /. float_of_int blocks)) "ms"
