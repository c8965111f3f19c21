(* Clock, child processes and host facts for the benchmark. Every
   child is registered when spawned and killed and reaped at exit, on
   the success and the failure path alike. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Mean nanoseconds per call of [f] over [xs]. Passes over [xs] repeat
   until [min_s] seconds are measured; the default is a single pass,
   for calls whose second pass would differ (a memo miss becomes a
   hit). *)
let ns_per_call ?(min_s = 0.) xs f =
  let n = Array.length xs in
  let total = ref 0 and calls = ref 0 in
  let pass () =
    let t0 = now_ns () in
    for i = 0 to n - 1 do
      ignore (Sys.opaque_identity (f xs.(i)))
    done;
    total := !total + (now_ns () - t0);
    calls := !calls + n
  in
  pass ();
  while float_of_int !total *. 1e-9 < min_s do
    pass ()
  done;
  float_of_int !total /. float_of_int !calls

(* Working files (port files, span dumps) live here, inside the
   checkout the benchmark runs from. *)
let work_dir = "_perfbench"

let ensure_work_dir () =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755

let live : int list ref = ref []

let spawn ?(stdin = Unix.stdin) ?(stdout = Unix.stdout) ?(stderr = Unix.stderr)
    prog args =
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout stderr
  in
  live := pid :: !live;
  pid

let forget pid = live := List.filter (( <> ) pid) !live

(* How long a child gets to exit on its own before it is killed. *)
let reap_timeout_s = 10.

(* Wait up to [reap_timeout_s] for [pid] to exit, then kill it. *)
let reap pid =
  let t0 = now_ns () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if seconds_since t0 > reap_timeout_s then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  forget pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let () =
  at_exit kill_all;
  let bail = Sys.Signal_handle (fun _ -> exit 3) in
  Sys.set_signal Sys.sigterm bail;
  Sys.set_signal Sys.sigint bail;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

external pin_here : unit -> int = "perfbench_pin_here"
external unpin : unit -> unit = "perfbench_unpin"

(* [f cpu] with this thread, and every process it spawns meanwhile,
   pinned to the CPU [cpu] it was running on; the affinity is restored
   afterwards. A closed loop over one connection alternates strictly
   between client and daemon, so sharing one CPU costs no parallelism
   and spares each request two wake-ups across CPUs, whose latency on a
   shared virtual machine moves with the host's load. *)
let on_one_cpu f =
  let cpu = pin_here () in
  Fun.protect ~finally:unpin (fun () -> f cpu)

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Online processors as the shell's [nproc] reports them (it honours
   the CPU affinity mask, unlike the runtime's recommendation). *)
let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic ->
    let n = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    (match n with Some n when n > 0 -> n | _ -> Domain.recommended_domain_count ())
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()

(* A derived seed: stream [i] of the workload seed. SplitMix64's
   finaliser over (seed, i), kept positive. *)
let derive seed i =
  let z = ref (Int64.add (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L) (Int64.of_int (i + 1))) in
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 30)) 0xBF58476D1CE4E5B9L;
  z := Int64.mul (Int64.logxor !z (Int64.shift_right_logical !z 27)) 0x94D049BB133111EBL;
  z := Int64.logxor !z (Int64.shift_right_logical !z 31);
  Int64.to_int (Int64.shift_right_logical !z 2)

(* (steal, total) jiffies of all CPUs from /proc/stat: on a virtual
   machine, steal is time the host ran something else on our vCPUs.
   Recorded with each result so that noisy runs can be told apart. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    let fields =
      List.filter_map int_of_string_opt (List.tl (String.split_on_char ' ' line))
    in
    let steal = match List.nth_opt fields 7 with Some s -> s | None -> 0 in
    (steal, List.fold_left ( + ) 0 fields)
