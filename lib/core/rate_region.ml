type opt_result = { ra : float; rb : float; deltas : float array }

let sum r = r.ra +. r.rb

(* LP variable layout: x = [ Ra; Rb; d_1; ...; d_L ]. *)
let lp_constraints (b : Bound.t) =
  let l = b.Bound.num_phases in
  let nvars = 2 + l in
  let of_term (t : Bound.term) =
    let coeffs = Array.make nvars 0. in
    coeffs.(0) <- t.Bound.ca;
    coeffs.(1) <- t.Bound.cb;
    Array.iteri (fun i c -> coeffs.(2 + i) <- -.c) t.Bound.per_phase;
    Linprog.Solver.constr coeffs Linprog.Solver.Le 0.
  in
  let simplex_row =
    let coeffs = Array.make nvars 0. in
    for i = 2 to nvars - 1 do
      coeffs.(i) <- 1.
    done;
    Linprog.Solver.constr coeffs Linprog.Solver.Eq 1.
  in
  (nvars, simplex_row :: List.map of_term b.Bound.terms)

(* --- per-domain warm-start solver slots ---------------------------- *)

(* One [Linprog.Solver.t] per (LP shape, domain): the shape — weighted
   sweep vs feasibility probe, phase count, term count — determines the
   tableau layout, so one instance serves every bound system of that
   shape. A sweep over one bound system reoptimises the loaded tableau
   (phase 1 never re-runs); moving to the next block's bound system
   rebuilds in place and carries the optimal basis across. Instances
   live in [Domain.DLS], so pool workers warm-start independently and
   no instance is ever shared between domains (the Solver ownership
   contract). An epoch bumped by [Engine.Memo.clear_all] invalidates
   every domain's slots, so "cold cache" runs rebuild their solvers from
   scratch. *)

let solver_epoch = Atomic.make 0

let () = Engine.Memo.on_clear_all (fun () -> Atomic.incr solver_epoch)

type solver_slot = {
  solver : Linprog.Solver.t;
  mutable loaded : Bound.t; (* the bound system currently loaded *)
  point : float array; (* a probe slot's loaded (ra, rb); unused otherwise *)
  c : float array; (* objective buffer, [nvars] slots *)
  x : float array; (* solution buffer for [reoptimize_into], [nvars + 1] *)
}

type slot_table = {
  mutable epoch : int;
  slots : (int, solver_slot) Hashtbl.t;
}

let slots_key =
  Domain.DLS.new_key (fun () ->
      { epoch = Atomic.get solver_epoch; slots = Hashtbl.create 8 })

let domain_slots () =
  let t = Domain.DLS.get slots_key in
  let e = Atomic.get solver_epoch in
  if t.epoch <> e then begin
    Hashtbl.reset t.slots;
    t.epoch <- e
  end;
  t.slots

(* The slot table's key: the LP shape packed into one int. *)
let shape ~probe (b : Bound.t) =
  (((b.Bound.num_phases lsl 16) lor List.length b.Bound.terms) lsl 1)
  lor Bool.to_int probe

(* Fetch this domain's slot for [b]'s shape, loading [constrs b] unless
   the slot already holds this very bound (physical equality) at the
   same point. A probe's system is the bound plus the probed point
   [(ra, rb)]; weighted slots pass 0. for both. A bound built
   separately with equal coefficients reloads: sweeps and probe sets
   pass one bound object, and equal-content repeats are rare (about 5%
   of the slot checks in [figures all], none in the ergodic campaign).
   The slot owns the [c]/[x] buffers its solver's
   [reoptimize_into] runs against, so a warm sweep iteration allocates
   nothing on the solve path. *)
let slot_for ~probe ~nvars b ~ra ~rb constrs =
  let slots = domain_slots () in
  let key = shape ~probe b in
  match Hashtbl.find slots key with
  | s ->
    if not (s.loaded == b && s.point.(0) = ra && s.point.(1) = rb) then begin
      Linprog.Solver.rebuild s.solver ~constrs:(constrs b);
      s.loaded <- b;
      s.point.(0) <- ra;
      s.point.(1) <- rb
    end;
    s
  | exception Not_found ->
    let solver = Linprog.Solver.create ~nvars ~constrs:(constrs b) in
    let s =
      { solver;
        loaded = b;
        point = [| ra; rb |];
        c = Array.make nvars 0.;
        x = Array.make (nvars + 1) 0.;
      }
    in
    Hashtbl.replace slots key s;
    s

(* Latency of every LP solved (weighted optima and feasibility probes
   alike). *)
let lp_seconds = Telemetry.Metrics.histogram "lp.solve_seconds"

let max_weighted b ~wa ~wb =
  if wa < 0. || wb < 0. || wa +. wb <= 0. then
    invalid_arg "Rate_region.max_weighted: bad weights";
  Engine.Stats.record_lp_solve ();
  Telemetry.Span.with_span ~cat:"lp" "lp.solve"
  @@ fun () ->
  Telemetry.Metrics.time lp_seconds
  @@ fun () ->
  let nvars = 2 + b.Bound.num_phases in
  let slot =
    slot_for ~probe:false ~nvars b ~ra:0. ~rb:0. (fun b ->
        snd (lp_constraints b))
  in
  let c = slot.c in
  Array.fill c 0 nvars 0.;
  c.(0) <- wa;
  c.(1) <- wb;
  match Linprog.Solver.reoptimize_into slot.solver ~c ~x:slot.x with
  | Linprog.Solver.Optimal ->
    let x = slot.x in
    { ra = x.(0); rb = x.(1); deltas = Array.sub x 2 (nvars - 2) }
  | Linprog.Solver.Unbounded ->
    failwith "Rate_region.max_weighted: unbounded bound system"
  | Linprog.Solver.Infeasible ->
    failwith "Rate_region.max_weighted: infeasible bound system"

(* A tiny secondary weight makes the corner lexicographic without
   perturbing the primary optimum at these problem scales. *)
let lex_eps = 1e-7

(* The sum-rate objective is parallel to the region's dominant face
   (slope -1), so the pure (1, 1) optimum is a whole edge whenever
   that face is active and the vertex a warm-started solve lands on
   depends on basis history. The lexicographic tilt selects the unique
   ra-most vertex of that face, making the reported maximizer
   history-independent; the sum itself is unaffected. *)
let max_sum_rate b = max_weighted b ~wa:(1. +. lex_eps) ~wb:1.

let max_ra b = max_weighted b ~wa:1. ~wb:lex_eps
let max_rb b = max_weighted b ~wa:lex_eps ~wb:1.

let achievable b ~ra ~rb =
  if ra < -1e-12 || rb < -1e-12 then false
  else begin
    Engine.Stats.record_lp_solve ();
    Telemetry.Span.with_span ~cat:"lp" "lp.probe"
    @@ fun () ->
    Telemetry.Metrics.time lp_seconds
    @@ fun () ->
    (* project out the rates: constraints over the durations only *)
    let l = b.Bound.num_phases in
    let constrs b =
      let of_term (t : Bound.term) =
        (* sum_l c_l d_l >= ca ra + cb rb *)
        Linprog.Solver.constr
          (Array.copy t.Bound.per_phase)
          Linprog.Solver.Ge
          ((t.Bound.ca *. ra) +. (t.Bound.cb *. rb) -. 1e-9)
      in
      let simplex_row =
        Linprog.Solver.constr (Array.make l 1.) Linprog.Solver.Eq 1.
      in
      simplex_row :: List.map of_term b.Bound.terms
    in
    (* probes shift the right-hand side per (ra, rb), so a probe at a new
       point rebuilds its slot. When the carried basis survives the new
       rhs the rebuild skips phase 1 and [feasible] answers immediately;
       otherwise this is the documented case where phase 1 re-runs. *)
    let slot = slot_for ~probe:true ~nvars:l b ~ra ~rb constrs in
    Linprog.Solver.feasible slot.solver
  end

(* Reusable per-domain flat buffers: the sweep's weight vector and the
   boundary's deduplicated (x, y) coordinate pairs are staged on
   growable [floatarray] scratch and only materialised into immutable
   values ([float] weights, [Vec2.t] lists) at the end — no per-point
   intermediate allocation in between. *)
let weight_scratch = Domain.DLS.new_key (fun () -> ref (Float.Array.create 128))

let point_scratch = Domain.DLS.new_key (fun () -> ref (Float.Array.create 256))

let scratch key ~cap =
  let buf = Domain.DLS.get key in
  if Float.Array.length !buf < cap then
    buf := Float.Array.create (max cap (2 * Float.Array.length !buf));
  !buf

(* The weight sweep shared by [boundary] and [boundary_with_schedules]:
   the Rb corner, then the interior weights in the legacy (descending-w)
   order, then the Ra corner. The interior LPs fan out over the engine
   pool; chunked-by-index scheduling keeps the order — and therefore the
   downstream dedup — independent of the domain count. *)
let sweep_results ~caller ~weights b =
  if weights < 2 then invalid_arg (caller ^ ": weights < 2");
  let wbuf = scratch weight_scratch ~cap:weights in
  let denom = float_of_int (weights + 1) in
  for i = 0 to weights - 1 do
    Float.Array.unsafe_set wbuf i (float_of_int (i + 1) /. denom)
  done;
  let interior = List.init weights (Float.Array.unsafe_get wbuf) in
  let sweep =
    Engine.Pool.map (fun w -> max_weighted b ~wa:w ~wb:(1. -. w)) interior
  in
  (max_rb b :: List.rev sweep) @ [ max_ra b ]

(* Keep-first dedup of the sweep's rate points on the flat pair buffer:
   slot [2i]/[2i+1] hold the i-th kept (x, y). The distance test is the
   expansion of [Vec2.dist p q < 1e-7], so kept points are exactly the
   ones the historical [Vec2.t]-list dedup kept. Returns the kept
   count; the caller materialises [Vec2.t]s from the buffer once. *)
let dedup_into buf results =
  let kept = ref 0 in
  List.iter
    (fun r ->
      let x = r.ra and y = r.rb in
      let dup = ref false and i = ref 0 in
      while (not !dup) && !i < !kept do
        let dx = x -. Float.Array.unsafe_get buf (2 * !i)
        and dy = y -. Float.Array.unsafe_get buf ((2 * !i) + 1) in
        if sqrt ((dx *. dx) +. (dy *. dy)) < 1e-7 then dup := true;
        incr i
      done;
      if not !dup then begin
        Float.Array.unsafe_set buf (2 * !kept) x;
        Float.Array.unsafe_set buf ((2 * !kept) + 1) y;
        incr kept
      end)
    results;
  !kept

let default_weights = 65

let boundary ?(weights = default_weights) b =
  Telemetry.Span.with_span ~cat:"region" "region.boundary"
    ~args:[ ("weights", Telemetry.Json.Int weights) ]
  @@ fun () ->
  let all = sweep_results ~caller:"Rate_region.boundary" ~weights b in
  let buf = scratch point_scratch ~cap:(2 * List.length all) in
  let kept = dedup_into buf all in
  List.init kept (fun i ->
      Numerics.Vec2.make
        (Float.Array.unsafe_get buf (2 * i))
        (Float.Array.unsafe_get buf ((2 * i) + 1)))
  |> List.sort (fun (p : Numerics.Vec2.t) (q : Numerics.Vec2.t) ->
         compare (p.Numerics.Vec2.x, p.Numerics.Vec2.y)
           (q.Numerics.Vec2.x, q.Numerics.Vec2.y))

let polygon ?weights b =
  Telemetry.Span.with_span ~cat:"region" "region.polygon" (fun () ->
      Numerics.Polygon.down_closure (boundary ?weights b))

let contains_region ?weights big small =
  List.for_all
    (fun (p : Numerics.Vec2.t) ->
      achievable big ~ra:p.Numerics.Vec2.x ~rb:p.Numerics.Vec2.y)
    (boundary ?weights small)

let distance_outside b ~ra ~rb =
  if achievable b ~ra ~rb then 0.
  else
    Numerics.Polygon.distance_to_boundary (polygon b)
      (Numerics.Vec2.make ra rb)

let union_polygon ?weights bounds =
  if bounds = [] then invalid_arg "Rate_region.union_polygon: no regions";
  Numerics.Polygon.down_closure
    (List.concat_map (fun b -> boundary ?weights b) bounds)

let binding_terms ?(eps = 1e-7) (b : Bound.t) r =
  List.filter
    (fun (t : Bound.term) ->
      let lhs = (t.Bound.ca *. r.ra) +. (t.Bound.cb *. r.rb) in
      let rhs = Bound.rate_budget b ~deltas:r.deltas t in
      abs_float (lhs -. rhs) <= eps *. Float.max 1. (abs_float rhs))
    b.Bound.terms

let boundary_with_schedules ?(weights = default_weights) b =
  let all =
    sweep_results ~caller:"Rate_region.boundary_with_schedules" ~weights b
  in
  (* dedup by rate pair, keeping the first schedule seen for it *)
  let close a b' =
    abs_float (a.ra -. b'.ra) < 1e-7 && abs_float (a.rb -. b'.rb) < 1e-7
  in
  List.fold_left
    (fun acc r -> if List.exists (close r) acc then acc else r :: acc)
    [] all
  |> List.sort (fun a b' -> compare (a.ra, a.rb) (b'.ra, b'.rb))
