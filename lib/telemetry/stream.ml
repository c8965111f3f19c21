(* Live telemetry streaming. The ring is a classic bounded MPSC queue
   built from an array of atomic slots: producers CAS-claim a tail
   ticket, then publish the event into their slot; the single consumer
   reads [head], spins on a claimed-but-unwritten slot, clears it and
   advances. Fullness is checked conservatively against the consumer's
   published [head] before claiming, so a producer can never overwrite
   an unconsumed slot — at worst it drops an event the consumer was
   just about to make room for, and drops are what the
   [telemetry.stream.dropped_events] counter exists to expose. *)

type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_name = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type progress = {
  p_t : float;
  p_name : string;
  p_completed : int;
  p_total : int;
  p_rate : float;
  p_ci_half_width : float option;
  p_ci_target : float option;
  p_eta_seconds : float option;
}

type logrec = {
  l_t : float;
  l_level : level;
  l_msg : string;
  l_span : string;
  l_domain : int;
}

type event =
  | Progress of progress
  | Log of logrec
  | Counter_delta of { cd_t : float; cd_name : string; cd_delta : int }
  | Digest of {
      dg_t : float;
      dg_name : string;
      dg_count : int;
      dg_sum : float;
      dg_p50 : float;
      dg_p90 : float;
      dg_p99 : float;
    }

let opt_float = function None -> Json.Null | Some f -> Json.Float f

let event_to_json = function
  | Progress p ->
    Json.Obj
      [ ("record", Json.String "progress");
        ("t", Json.Float p.p_t);
        ("name", Json.String p.p_name);
        ("completed", Json.Int p.p_completed);
        ("total", Json.Int p.p_total);
        ("rate", Json.Float p.p_rate);
        ("ci", opt_float p.p_ci_half_width);
        ("ci_target", opt_float p.p_ci_target);
        ("eta", opt_float p.p_eta_seconds);
      ]
  | Log l ->
    Json.Obj
      [ ("record", Json.String "log");
        ("t", Json.Float l.l_t);
        ("level", Json.String (level_name l.l_level));
        ("msg", Json.String l.l_msg);
        ("span", Json.String l.l_span);
        ("domain", Json.Int l.l_domain);
      ]
  | Counter_delta c ->
    Json.Obj
      [ ("record", Json.String "counter");
        ("t", Json.Float c.cd_t);
        ("name", Json.String c.cd_name);
        ("delta", Json.Int c.cd_delta);
      ]
  | Digest d ->
    Json.Obj
      [ ("record", Json.String "digest");
        ("t", Json.Float d.dg_t);
        ("name", Json.String d.dg_name);
        ("count", Json.Int d.dg_count);
        ("sum", Json.Float d.dg_sum);
        ("p50", Json.Float d.dg_p50);
        ("p90", Json.Float d.dg_p90);
        ("p99", Json.Float d.dg_p99);
      ]

(* ------------------------------------------------------------------ *)
(* The ring                                                            *)
(* ------------------------------------------------------------------ *)

let capacity = 8192

(* The slots are allocated when streaming is first enabled: they are
   ~24k words of live heap that a process which never streams would
   carry, and the major heap grows with the live set. Producers push
   only while streaming, so they always find the slots in place. *)
let slots : event option Atomic.t array Atomic.t = Atomic.make [||]
let slots_lock = Mutex.create ()

let ensure_slots () =
  if Array.length (Atomic.get slots) = 0 then
    Mutex.protect slots_lock (fun () ->
        if Array.length (Atomic.get slots) = 0 then
          Atomic.set slots (Array.init capacity (fun _ -> Atomic.make None)))

(* [tail] is the next ticket to claim (producers CAS it); [head] is the
   next slot to consume, written only by the consumer. Both grow
   without bound; slot = ticket mod capacity. *)
let tail = Atomic.make 0
let head = Atomic.make 0

let streaming = Atomic.make false

let enabled () = Atomic.get streaming
let set_enabled b =
  if b then ensure_slots ();
  Atomic.set streaming b

let with_enabled b f =
  if b then ensure_slots ();
  let old = Atomic.get streaming in
  Atomic.set streaming b;
  Fun.protect ~finally:(fun () -> Atomic.set streaming old) f

let events_c = Metrics.counter "telemetry.stream.events"
let dropped_c = Metrics.counter "telemetry.stream.dropped_events"
let heartbeats_c = Metrics.counter "telemetry.stream.heartbeats"
let flush_seconds = Metrics.histogram "telemetry.stream.flush_seconds"

let dropped_events () = Metrics.value dropped_c

let rec push ev =
  let t = Atomic.get tail in
  if t - Atomic.get head >= capacity then begin
    Metrics.incr dropped_c;
    false
  end
  else if Atomic.compare_and_set tail t (t + 1) then begin
    (* the slot is ours: the consumer cleared it to [None] before
       advancing [head] past [t - capacity], and no other producer can
       claim ticket [t] *)
    Atomic.set (Atomic.get slots).(t mod capacity) (Some ev);
    Metrics.incr events_c;
    true
  end
  else push ev

let emit ev = if Atomic.get streaming then push ev else false

let note_progress ~name ~completed ~total ?(rate = 0.) ?ci_half_width
    ?ci_target ?eta_seconds () =
  if Atomic.get streaming then
    ignore
      (push
         (Progress
            { p_t = Unix.gettimeofday ();
              p_name = name;
              p_completed = completed;
              p_total = total;
              p_rate = rate;
              p_ci_half_width = ci_half_width;
              p_ci_target = ci_target;
              p_eta_seconds = eta_seconds;
            })
        : bool)

let drain () =
  let acc = ref [] in
  let continue = ref true in
  while !continue do
    let h = Atomic.get head in
    if h >= Atomic.get tail then continue := false
    else begin
      let slot = (Atomic.get slots).(h mod capacity) in
      (* a producer that claimed this ticket may not have published its
         event yet; the window is a few instructions, so spin *)
      let rec take () =
        match Atomic.get slot with
        | Some ev -> ev
        | None ->
          Domain.cpu_relax ();
          take ()
      in
      let ev = take () in
      Atomic.set slot None;
      Atomic.set head (h + 1);
      acc := ev :: !acc
    end
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* The writer                                                          *)
(* ------------------------------------------------------------------ *)

module Writer = struct
  type t = {
    oc : out_channel;
    interval : float;
    mutable last_hb : float;
    mutable seq : int;
    mutable closed : bool;
    (* counter values when the writer opened, so the final record
       reports this run's totals even if the process streamed before *)
    events_base : int;
    dropped_base : int;
    (* registry state at the previous heartbeat, for delta encoding *)
    prev_counters : (string, int) Hashtbl.t;
    prev_hist_counts : (string, int) Hashtbl.t;
  }

  let write_line w json =
    output_string w.oc (Json.to_string json);
    output_char w.oc '\n'

  let create ?(interval = 0.) ~path () =
    let oc = open_out path in
    let w =
      { oc;
        interval;
        last_hb = neg_infinity;
        seq = 0;
        closed = false;
        events_base = Metrics.value events_c;
        dropped_base = Metrics.value dropped_c;
        prev_counters = Hashtbl.create 64;
        prev_hist_counts = Hashtbl.create 32;
      }
    in
    write_line w
      (Json.Obj
         [ ("schema", Json.String "bidir-live/1");
           ("record", Json.String "start");
           ("t", Json.Float (Unix.gettimeofday ()));
           ("interval", Json.Float interval);
         ]);
    flush oc;
    w

  (* the registry serialised as deltas against the previous heartbeat:
     counters whose value moved (as the increment), histograms whose
     count moved (as a cumulative digest — quantiles don't subtract) *)
  let registry_delta w =
    let counters =
      List.filter_map
        (fun (name, v) ->
          let prev =
            Option.value ~default:0 (Hashtbl.find_opt w.prev_counters name)
          in
          if v = prev then None
          else begin
            Hashtbl.replace w.prev_counters name v;
            Some (name, Json.Int (v - prev))
          end)
        (Metrics.counters ())
    in
    let histograms =
      List.filter_map
        (fun (name, h) ->
          let c = Histogram.count h in
          let prev =
            Option.value ~default:0 (Hashtbl.find_opt w.prev_hist_counts name)
          in
          if c = prev then None
          else begin
            Hashtbl.replace w.prev_hist_counts name c;
            let p50, p90, p99 = Histogram.percentiles h in
            Some
              ( name,
                Json.Obj
                  [ ("count", Json.Int c);
                    ("sum", Json.Float (Histogram.sum h));
                    ("p50", Json.Float p50);
                    ("p90", Json.Float p90);
                    ("p99", Json.Float p99);
                  ] )
          end)
        (Metrics.histograms ())
    in
    (counters, histograms)

  let heartbeat w =
    if not w.closed then
      Metrics.time flush_seconds @@ fun () ->
      List.iter (fun ev -> write_line w (event_to_json ev)) (drain ());
      let counters, histograms = registry_delta w in
      w.seq <- w.seq + 1;
      write_line w
        (Json.Obj
           [ ("record", Json.String "heartbeat");
             ("t", Json.Float (Unix.gettimeofday ()));
             ("seq", Json.Int w.seq);
             ("counters", Json.Obj counters);
             ("histograms", Json.Obj histograms);
           ]);
      Metrics.incr heartbeats_c;
      w.last_hb <- Unix.gettimeofday ();
      flush w.oc

  let pulse w =
    if (not w.closed) && Unix.gettimeofday () -. w.last_hb >= w.interval then
      heartbeat w

  let heartbeats w = w.seq

  let close w =
    if not w.closed then begin
      heartbeat w;
      w.closed <- true;
      write_line w
        (Json.Obj
           [ ("record", Json.String "final");
             ("t", Json.Float (Unix.gettimeofday ()));
             ("heartbeats", Json.Int w.seq);
             ("events", Json.Int (Metrics.value events_c - w.events_base));
             ("dropped_events",
              Json.Int (Metrics.value dropped_c - w.dropped_base));
           ]);
      flush w.oc;
      close_out_noerr w.oc
    end
end

(* ------------------------------------------------------------------ *)
(* The process-wide live writer                                        *)
(* ------------------------------------------------------------------ *)

let live : (string * Writer.t) option ref = ref None
let pulse_hook = ref (fun () -> ())

let set_pulse_hook f = pulse_hook := f

let close_live () =
  (match !live with
  | Some (_, w) -> Writer.close w
  | None -> ());
  live := None;
  set_enabled false

let open_live ?interval path =
  close_live ();
  live := Some (path, Writer.create ?interval ~path ());
  set_enabled true

let live_path () = Option.map fst !live

let pulse_live () =
  !pulse_hook ();
  match !live with Some (_, w) -> Writer.pulse w | None -> ()
