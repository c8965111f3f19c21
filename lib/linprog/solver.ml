(* Reusable warm-start simplex engine — the one LP front-end.

   A [Solver.t] owns its tableau (and every scratch buffer) for as long
   as the caller keeps it: the constraint system is loaded once, phase 1
   establishes a feasible basis once, and each [reoptimize_into ~c]
   restarts phase 2 from the basis the previous solve ended on —
   feasibility is invariant under objective changes, so phase 1 never
   re-runs on a pure objective sweep. A cold solve is simply [create]
   followed by one [reoptimize_into]. [rebuild] swaps in a new
   constraint system in place; when the new system has the same
   structural shape the old optimal basis is refactorised against the
   fresh coefficients and, if it verifies feasible, phase 1 is skipped
   there too.

   The numeric core is [Kernel]: a single flat row-major [floatarray]
   tableau with allocation-free elimination/pricing/ratio loops. On top
   of it this module keeps only the solve-to-solve state machine
   (phases, basis carry, telemetry). The solution and objective land in
   a caller-owned buffer, so a warm solve allocates zero words, which
   the [linprog.alloc_bytes] budget in `bidir check` pins.

   Pricing is Dantzig's rule (most positive reduced cost) for speed,
   with an automatic, sticky fallback to Bland's rule after a run of
   degenerate pivots — Bland cannot cycle, so termination is
   unconditional.

   A solver is deliberately NOT re-entrant: it mutates itself on every
   call. Give each domain its own instance (the rate-region layer keys
   instances per domain via [Domain.DLS]); see docs/ENGINE.md. *)

type relation = Le | Ge | Eq

type constr = { coeffs : float array; relation : relation; rhs : float }

let constr coeffs relation rhs = { coeffs; relation; rhs }

let eps = 1e-9

(* Pivot elements this small are treated as singular when refactorising
   a carried basis; below [rhs_tol] a refactorised right-hand side is
   considered infeasible rather than merely degenerate noise. *)
let singular_tol = 1e-7
let rhs_tol = 1e-10

(* The LP layer's solve/pivot telemetry ([Engine.Stats] reads it). *)
let solves_counter = Telemetry.Metrics.counter "linprog.solves"
let pivots_counter = Telemetry.Metrics.counter "linprog.pivots"

let pivots_per_solve =
  Telemetry.Metrics.histogram ~lo:1. ~growth:2. ~buckets:24
    "linprog.pivots_per_solve"

(* Warm-start telemetry: solves that started from a previously optimal
   basis, solves where that let us skip phase 1 entirely, their pivot
   distribution, and the row eliminations spent refactorising carried
   bases (basis factorisation work, not simplex iterations — kept in
   its own counter so the pivot totals stay honest). *)
let warm_solves_counter = Telemetry.Metrics.counter "linprog.warm_solves"
let phase1_skipped_counter = Telemetry.Metrics.counter "linprog.phase1_skipped"

let pivots_per_warm_solve =
  Telemetry.Metrics.histogram ~lo:1. ~growth:2. ~buckets:24
    "linprog.pivots_per_warm_solve"

let refactor_counter = Telemetry.Metrics.counter "linprog.refactor_eliminations"

(* Bytes allocated inside LP entry points while Telemetry.Resource is
   enabled; [linprog.alloc_bytes / linprog.solves] is the per-solve
   allocation footprint. *)
let alloc_bytes_counter = Telemetry.Metrics.counter "linprog.alloc_bytes"

let record_alloc b0 =
  Telemetry.Metrics.add alloc_bytes_counter
    (int_of_float (Float.max 0. (Gc.allocated_bytes () -. b0)))

type status = Sat | Unsat

type verdict = Optimal | Unbounded | Infeasible

type t = {
  nvars : int;
  (* geometry of the currently loaded (normalised) system *)
  mutable m : int;                 (* constraint rows as loaded *)
  mutable first_artificial : int;
  mutable shape : int array;       (* per-row normalised relation tag *)
  (* the flat tableau + all pricing scratch (grown on demand) *)
  k : Kernel.t;
  mutable saved_basis : int array; (* scratch for basis carry *)
  mutable row_done : bool array;   (* scratch for refactorisation *)
  (* solve-to-solve state *)
  mutable status : status;
  mutable pending_pivots : int;    (* pivots since the last recorded solve *)
  mutable recorded_pivots : int;   (* pivots of all recorded solves *)
  mutable warm_next : bool;        (* next solve starts from a prior basis *)
  mutable skip1_next : bool;       (* ... and phase 1 was skipped for it *)
  stall_limit : int;
}

let pivots t = t.recorded_pivots

(* ------------------------------------------------------------------ *)
(* Tableau construction                                                *)
(* ------------------------------------------------------------------ *)

let rel_tag = function Le -> 0 | Ge -> 1 | Eq -> 2

let normalise nvars constrs =
  List.map
    (fun c ->
      if Array.length c.coeffs <> nvars then
        invalid_arg "Linprog.Solver: constraint arity mismatch";
      if c.rhs < 0. then
        { coeffs = Array.map (fun a -> -.a) c.coeffs;
          relation = (match c.relation with Le -> Ge | Ge -> Le | Eq -> Eq);
          rhs = -.c.rhs;
        }
      else c)
    constrs

let layout nvars normalised =
  let m = List.length normalised in
  let n_slack =
    List.length (List.filter (fun c -> c.relation <> Eq) normalised)
  in
  let first_artificial = nvars + n_slack in
  let n_art =
    List.length (List.filter (fun c -> c.relation <> Le) normalised)
  in
  (m, first_artificial, first_artificial + n_art)

(* (Re)load the kernel with [normalised] at geometry (t.m, ncols),
   starting every row from the standard phase-1 basis. *)
let fill t normalised ncols =
  let k = t.k in
  Kernel.resize k ~nrows:t.m ~ncols;
  Kernel.clear k;
  let slack = ref t.nvars and art = ref t.first_artificial in
  List.iteri
    (fun i c ->
      for j = 0 to t.nvars - 1 do
        Kernel.set k i j c.coeffs.(j)
      done;
      Kernel.set k i ncols c.rhs;
      t.shape.(i) <- rel_tag c.relation;
      (match c.relation with
      | Le ->
        Kernel.set k i !slack 1.;
        Kernel.set_basis k i !slack;
        incr slack
      | Ge ->
        Kernel.set k i !slack (-1.);
        incr slack;
        Kernel.set k i !art 1.;
        Kernel.set_basis k i !art;
        incr art
      | Eq ->
        Kernel.set k i !art 1.;
        Kernel.set_basis k i !art;
        incr art))
    normalised;
  Kernel.allow_all k

(* ------------------------------------------------------------------ *)
(* Pivoting                                                            *)
(* ------------------------------------------------------------------ *)

let pivot t ~row ~col =
  t.pending_pivots <- t.pending_pivots + 1;
  Kernel.eliminate t.k ~row ~col

(* One simplex phase from the current basis against the kernel's loaded
   cost. Entering column: Dantzig (largest reduced cost, lowest index on
   ties) until [stall_limit] consecutive degenerate pivots, then Bland
   (lowest eligible index) for the rest of the phase — Bland cannot
   cycle, so the phase terminates. Leaving row: minimum ratio, lowest
   basis index among ties. *)
(* Iterative (no local recursive closure: a closure plus the refs it
   captures would be the only heap blocks left on the warm path).
   State: 0 = running, 1 = optimal, 2 = unbounded. *)
let run_phase t =
  let k = t.k in
  let bland = ref false and stall = ref 0 in
  let state = ref 0 and iter = ref 0 in
  while !state = 0 do
    if !iter > 10_000 then failwith "Linprog.Solver: iteration limit exceeded";
    incr iter;
    Kernel.compute_reduced k;
    let entering =
      if !bland then Kernel.price_bland k else Kernel.price_dantzig k
    in
    if entering < 0 then state := 1
    else begin
      let leave = Kernel.ratio_leave k ~col:entering in
      if leave < 0 then state := 2
      else begin
        if Kernel.degenerate k then begin
          incr stall;
          if !stall > t.stall_limit then bland := true
        end
        else stall := 0;
        pivot t ~row:leave ~col:entering
      end
    end
  done;
  if !state = 1 then `Optimal else `Unbounded

let drive_out_artificials t =
  let k = t.k in
  let fa = t.first_artificial in
  let i = ref 0 in
  while !i < Kernel.nrows k do
    if Kernel.basis k !i >= fa then begin
      let col = ref (-1) and j = ref 0 in
      while !col < 0 && !j < fa do
        if abs_float (Kernel.get k !i !j) > eps then col := !j;
        incr j
      done;
      if !col >= 0 then begin
        pivot t ~row:!i ~col:!col;
        incr i
      end
      else Kernel.drop_row k !i
    end
    else incr i
  done

(* Phase 1 from the standard artificial basis already loaded by [fill]:
   maximise -(sum of artificials), then drive surviving artificials out
   of the basis and bar them from re-entering. *)
let phase1 t =
  Kernel.load_phase1_cost t.k ~first_artificial:t.first_artificial;
  (match run_phase t with
  | `Unbounded -> assert false (* phase-1 objective is bounded above by 0 *)
  | `Optimal -> ());
  if Kernel.objective t.k < -.eps then t.status <- Unsat
  else begin
    drive_out_artificials t;
    Kernel.bar_from t.k t.first_artificial;
    t.status <- Sat
  end

(* ------------------------------------------------------------------ *)
(* Construction and in-place rebuild                                   *)
(* ------------------------------------------------------------------ *)

let create_impl ~nvars ~constrs =
  if nvars <= 0 then invalid_arg "Linprog.Solver.create: nvars <= 0";
  let normalised = normalise nvars constrs in
  let m, first_artificial, ncols = layout nvars normalised in
  let t =
    { nvars;
      m;
      first_artificial;
      shape = Array.make m 0;
      k = Kernel.create ~nrows:m ~ncols;
      saved_basis = Array.make m 0;
      row_done = Array.make m false;
      status = Sat;
      pending_pivots = 0;
      recorded_pivots = 0;
      warm_next = false;
      skip1_next = false;
      stall_limit = 20;
    }
  in
  fill t normalised ncols;
  phase1 t;
  t

(* Refactorise the carried basis against freshly loaded rows: classic
   Gauss-Jordan with full pivoting restricted to the carried columns.
   Row eliminations here are basis factorisation, not simplex
   iterations — they count into [linprog.refactor_eliminations], never
   [linprog.pivots]. Returns false on a (near-)singular basis. *)
let refactor_basis t =
  let k = t.k in
  let m = t.m in
  Array.fill t.row_done 0 m false;
  let ok = ref true in
  for step = 0 to m - 1 do
    if !ok then begin
      (* unconsumed rows: [row_done] is false; unconsumed carried
         columns: slots [step .. m-1] of [saved_basis] *)
      let best = ref singular_tol and br = ref (-1) and bc = ref (-1) in
      for i = 0 to m - 1 do
        if not t.row_done.(i) then
          for c = step to m - 1 do
            let a = abs_float (Kernel.get k i t.saved_basis.(c)) in
            if a > !best then begin
              best := a;
              br := i;
              bc := c
            end
          done
      done;
      if !br < 0 then ok := false
      else begin
        Telemetry.Metrics.incr refactor_counter;
        Kernel.eliminate k ~row:!br ~col:t.saved_basis.(!bc);
        t.row_done.(!br) <- true;
        let tmp = t.saved_basis.(!bc) in
        t.saved_basis.(!bc) <- t.saved_basis.(step);
        t.saved_basis.(step) <- tmp
      end
    end
  done;
  !ok

let rebuild_impl t ~constrs =
  let normalised = normalise t.nvars constrs in
  let m, first_artificial, ncols = layout t.nvars normalised in
  let same_shape =
    t.status = Sat
    && Kernel.nrows t.k = t.m
    && m = t.m
    && first_artificial = t.first_artificial
    && ncols = Kernel.ncols t.k
    && List.for_all2
         (fun c i -> rel_tag c.relation = t.shape.(i))
         normalised
         (List.init m Fun.id)
  in
  (* a carried basis never contains artificials (drive-out guarantees
     it while nrows = m), so it is a carry candidate whenever the
     column layout is unchanged *)
  let carry = same_shape in
  if carry then
    for i = 0 to m - 1 do
      t.saved_basis.(i) <- Kernel.basis t.k i
    done;
  if m <> t.m then begin
    t.shape <- Array.make m 0;
    t.saved_basis <- Array.make m 0;
    t.row_done <- Array.make m false
  end;
  t.m <- m;
  t.first_artificial <- first_artificial;
  fill t normalised ncols;
  let carried =
    carry
    && refactor_basis t
    &&
    let feas = ref true in
    for i = 0 to Kernel.nrows t.k - 1 do
      if Kernel.rhs t.k i < -.rhs_tol then feas := false
    done;
    !feas
  in
  if carried then begin
    (* the carried basis is feasible for the new system: phase 1 is
       unnecessary, artificials stay barred *)
    Kernel.bar_from t.k t.first_artificial;
    t.status <- Sat;
    t.warm_next <- true;
    t.skip1_next <- true
  end
  else begin
    if carry then fill t normalised ncols (* refactorisation clobbered the rows *);
    phase1 t;
    t.warm_next <- false;
    t.skip1_next <- false
  end

(* ------------------------------------------------------------------ *)
(* Solving                                                             *)
(* ------------------------------------------------------------------ *)

(* Counters plus the per-solve pivot distributions. [observe_int] keeps
   this allocation-free, so recording rides inside the zero-alloc warm
   path without widening its footprint. *)
let record_solve t =
  Telemetry.Metrics.incr solves_counter;
  Telemetry.Metrics.add pivots_counter t.pending_pivots;
  t.recorded_pivots <- t.recorded_pivots + t.pending_pivots;
  Telemetry.Metrics.observe_int pivots_per_solve t.pending_pivots;
  if t.warm_next then begin
    Telemetry.Metrics.incr warm_solves_counter;
    Telemetry.Metrics.observe_int pivots_per_warm_solve t.pending_pivots
  end;
  if t.skip1_next then Telemetry.Metrics.incr phase1_skipped_counter;
  t.pending_pivots <- 0;
  (* anything solved on this instance from here on starts from the
     basis the solve above ended on *)
  t.warm_next <- true;
  t.skip1_next <- true

(* The solve: the solution lands in the caller-owned [x] (objective in
   [x.(nvars)], negative zero normalised so rendering never prints
   "-0") and the verdict is a constant constructor — a warm solve
   allocates zero words, telemetry included. *)
let reoptimize_into_impl t ~c ~x =
  if Array.length c <> t.nvars then
    invalid_arg "Linprog.Solver.reoptimize_into: objective arity mismatch";
  if Array.length x < t.nvars + 1 then
    invalid_arg "Linprog.Solver.reoptimize_into: x must have nvars + 1 slots";
  match t.status with
  | Unsat ->
    record_solve t;
    Infeasible
  | Sat ->
    Kernel.load_cost t.k c t.nvars;
    (match run_phase t with
    | `Unbounded ->
      record_solve t;
      Unbounded
    | `Optimal ->
      Kernel.solution_into t.k ~nvars:t.nvars ~x;
      Kernel.objective_into t.k x t.nvars;
      let v = Array.unsafe_get x t.nvars in
      if v = 0. then Array.unsafe_set x t.nvars 0.;
      record_solve t;
      Optimal)

(* Allocation-accounting wrappers around the entry points. The
   disabled path is the plain call — one atomic load, no closure. *)
let create ~nvars ~constrs =
  if not (Telemetry.Resource.enabled ()) then create_impl ~nvars ~constrs
  else begin
    let b0 = Gc.allocated_bytes () in
    Fun.protect
      ~finally:(fun () -> record_alloc b0)
      (fun () -> create_impl ~nvars ~constrs)
  end

let rebuild t ~constrs =
  if not (Telemetry.Resource.enabled ()) then rebuild_impl t ~constrs
  else begin
    let b0 = Gc.allocated_bytes () in
    Fun.protect
      ~finally:(fun () -> record_alloc b0)
      (fun () -> rebuild_impl t ~constrs)
  end

(* No [Fun.protect] here: the two closures it would allocate are the
   difference between ~0 and ~60 bytes per accounted warm solve. The
   impl only raises on caller errors (arity), where losing one
   accounting delta is harmless. *)
let reoptimize_into t ~c ~x =
  if not (Telemetry.Resource.enabled ()) then reoptimize_into_impl t ~c ~x
  else begin
    let b0 = Gc.allocated_bytes () in
    let r = reoptimize_into_impl t ~c ~x in
    record_alloc b0;
    r
  end

let feasible t =
  let sat = t.status = Sat in
  record_solve t;
  sat
