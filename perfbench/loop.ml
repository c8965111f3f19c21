(* The timed loop every workload runs in.

   [op tr i] runs call [i] (timed), recording spans into [tr] when it
   is given, and returns how many operations it attempted; [check i]
   gates call [i] after the clock has stopped and returns how many of
   them failed. Calls go on until [seconds] of timed work have passed.
   With a recorder, chunks of [chunk] calls alternate untraced and
   traced, so that both rates come from the same stretch of time. *)

type result = {
  attempted : int;
  failed : int;
  latencies_ms : float array;  (* one per call *)
  ok_per_s : float;
      (* correct operations per second: the median over windows of
         [chunk] calls, so that a burst of contention on a shared host
         moves it less *)
  traced_rate : float;  (* ops/s inside traced chunks; 0 untraced *)
  untraced_rate : float;
}

(* [f ()] inside span [name] of call [req] when [tr] is given. *)
let span tr ~name ~req f =
  match tr with
  | None -> f ()
  | Some t ->
    let s = Trace.enter t ~name ~req ~now:(Proc.now_ns ()) in
    let r = f () in
    Trace.leave t s ~now:(Proc.now_ns ());
    r

let run ?trace ~chunk ~spans_per_call ~seconds ~op ~check () =
  let lat = ref (Array.make 4096 0.) and nlat = ref 0 in
  let push x =
    if !nlat = Array.length !lat then begin
      let a = Array.make (2 * !nlat) 0. in
      Array.blit !lat 0 a 0 !nlat;
      lat := a
    end;
    !lat.(!nlat) <- x;
    incr nlat
  in
  let rate ok ns = float_of_int ok /. (float_of_int ns *. 1e-9) in
  let attempted = ref 0 and failed = ref 0 in
  let ok_in = [| 0; 0 |] and ns_in = [| 0; 0 |] in
  let windows = ref [] and w_ok = ref 0 and w_ns = ref 0 in
  let limit_ns = int_of_float (seconds *. 1e9) and timed_ns = ref 0 in
  let i = ref 0 and traced = ref false in
  while !timed_ns < limit_ns do
    (* a chunk is traced only while the recorder has room for all of
       it, so trace.overhead never counts a chunk whose spans dropped *)
    if !i mod chunk = 0 then
      traced :=
        (match trace with
        | Some tr -> (!i / chunk) mod 2 = 1 && Trace.has_room tr (spans_per_call * chunk)
        | None -> false);
    let tr = if !traced then trace else None in
    let t0 = Proc.now_ns () in
    let n = op tr !i in
    let dt = Proc.now_ns () - t0 in
    let ok = n - check !i in
    timed_ns := !timed_ns + dt;
    attempted := !attempted + n;
    failed := !failed + (n - ok);
    push (float_of_int dt *. 1e-6);
    let slot = if !traced then 1 else 0 in
    ns_in.(slot) <- ns_in.(slot) + dt;
    ok_in.(slot) <- ok_in.(slot) + ok;
    w_ns := !w_ns + dt;
    w_ok := !w_ok + ok;
    incr i;
    if !i mod chunk = 0 then begin
      windows := rate !w_ok !w_ns :: !windows;
      w_ok := 0;
      w_ns := 0
    end
  done;
  if !windows = [] then windows := [ rate !w_ok !w_ns ];
  let rate_in k = if ns_in.(k) = 0 then 0. else rate ok_in.(k) ns_in.(k) in
  { attempted = !attempted;
    failed = !failed;
    latencies_ms = Array.sub !lat 0 !nlat;
    ok_per_s = Numerics.Stats.median (Array.of_list !windows);
    traced_rate = (match trace with Some _ -> rate_in 1 | None -> 0.);
    untraced_rate = rate_in 0;
  }
