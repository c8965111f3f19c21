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

(* Canonical cache key for a bound system: protocol, bound kind and the
   exact (hex-rendered, lossless) constraint coefficients. Two bounds
   built from the same protocol/kind/scenario produce the same key, so
   repeated sweeps over overlapping scenarios share LP solutions. *)
let bound_key (b : Bound.t) =
  let buf = Buffer.create 160 in
  Buffer.add_string buf (Protocol.name b.Bound.protocol);
  Buffer.add_char buf '|';
  Buffer.add_string buf (Bound.kind_name b.Bound.bound_kind);
  Printf.bprintf buf "|%d" b.Bound.num_phases;
  List.iter
    (fun (t : Bound.term) ->
      Printf.bprintf buf "|%h,%h" t.Bound.ca t.Bound.cb;
      Array.iter (fun c -> Printf.bprintf buf ",%h" c) t.Bound.per_phase)
    b.Bound.terms;
  Buffer.contents buf

let weighted_cache : (string * float * float, opt_result) Engine.Memo.t =
  Engine.Memo.create ~name:"rate_region.weighted" ()

let feasibility_cache : (string * float * float, bool) Engine.Memo.t =
  Engine.Memo.create ~name:"rate_region.feasibility" ()

(* Boundary sweeps and their down-closures are cached whole: the warm
   path of a figure pass is dominated not by LP solves (those hit
   [weighted_cache]) but by the sweep's dedup/sort and the convex
   geometry, so caching the finished point lists is what makes repeat
   passes cheap. Both store immutable [Vec2.t] lists, so hits can share
   structure safely. *)
let boundary_cache : (string * int, Numerics.Vec2.t list) Engine.Memo.t =
  Engine.Memo.create ~name:"rate_region.boundary" ()

let polygon_cache : (string * int, Numerics.Vec2.t list) Engine.Memo.t =
  Engine.Memo.create ~name:"rate_region.polygon" ()

(* --- per-domain warm-start solver slots ---------------------------- *)

(* One [Linprog.Solver.t] per (LP shape, domain): the shape — weighted
   sweep vs feasibility probe, phase count, term count — determines the
   tableau layout, so one instance serves every bound system of that
   shape. A sweep over one bound system reoptimises the loaded tableau
   (phase 1 never re-runs); moving to the next block's bound system
   rebuilds in place and carries the optimal basis across. Instances
   live in [Domain.DLS], so pool workers warm-start independently and
   no instance is ever shared between domains (the Solver ownership
   contract). An epoch bumped by [clear_cache] / [Memo.clear_all]
   invalidates every domain's slots, so "cold cache" runs rebuild their
   solvers from scratch. *)

let solver_epoch = Atomic.make 0

let bump_solver_epoch () = Atomic.incr solver_epoch

let () = Engine.Memo.on_clear_all bump_solver_epoch

type solver_slot = {
  solver : Linprog.Solver.t;
  mutable loaded : string; (* bound key of the system currently loaded *)
  c : float array; (* objective buffer, [nvars] slots *)
  x : float array; (* solution buffer for [reoptimize_into], [nvars + 1] *)
}

type slot_table = {
  mutable epoch : int;
  slots : (string, solver_slot) Hashtbl.t;
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

(* Fetch this domain's slot for [shape], loading [constrs b] when the
   slot holds a different bound system (or none yet). The slot owns the
   [c]/[x] buffers its solver's [reoptimize_into] runs against, so a
   warm sweep iteration allocates nothing on the solve path. *)
let slot_for ~shape ~key ~nvars b constrs =
  let slots = domain_slots () in
  match Hashtbl.find_opt slots shape with
  | Some s ->
    if s.loaded <> key then begin
      Linprog.Solver.rebuild s.solver ~constrs:(constrs b);
      s.loaded <- key
    end;
    s
  | None ->
    let solver = Linprog.Solver.create ~nvars ~constrs:(constrs b) in
    let s =
      { solver;
        loaded = key;
        c = Array.make nvars 0.;
        x = Array.make (nvars + 1) 0.;
      }
    in
    Hashtbl.replace slots shape s;
    s

let clear_cache () =
  Engine.Memo.clear weighted_cache;
  Engine.Memo.clear feasibility_cache;
  Engine.Memo.clear boundary_cache;
  Engine.Memo.clear polygon_cache;
  bump_solver_epoch ()

(* Latency of every LP actually solved (weighted optima and
   feasibility probes alike); memo hits never reach this. *)
let lp_seconds = Telemetry.Metrics.histogram "lp.solve_seconds"

let solve_weighted ~key b ~wa ~wb =
  Engine.Stats.record_lp_solve ();
  Telemetry.Span.with_span ~cat:"lp" "lp.solve"
  @@ fun () ->
  Telemetry.Metrics.time lp_seconds
  @@ fun () ->
  let nvars = 2 + b.Bound.num_phases in
  let shape =
    Printf.sprintf "w|%d|%d" b.Bound.num_phases (List.length b.Bound.terms)
  in
  let slot = slot_for ~shape ~key ~nvars b (fun b -> snd (lp_constraints b)) in
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

(* [~key] must be [bound_key b]; sweeps compute it once and reuse it
   across their LPs — building the key is cheap next to a solve but not
   next to a cache hit. *)
let max_weighted_keyed ~key b ~wa ~wb =
  if wa < 0. || wb < 0. || wa +. wb <= 0. then
    invalid_arg "Rate_region.max_weighted: bad weights";
  let r =
    Engine.Memo.find_or_add weighted_cache (key, wa, wb) (fun () ->
        solve_weighted ~key b ~wa ~wb)
  in
  (* fresh deltas so callers can never mutate the cached schedule *)
  { r with deltas = Array.copy r.deltas }

let max_weighted b ~wa ~wb = max_weighted_keyed ~key:(bound_key b) b ~wa ~wb

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

let max_ra_keyed ~key b = max_weighted_keyed ~key b ~wa:1. ~wb:lex_eps
let max_rb_keyed ~key b = max_weighted_keyed ~key b ~wa:lex_eps ~wb:1.
let max_ra b = max_ra_keyed ~key:(bound_key b) b
let max_rb b = max_rb_keyed ~key:(bound_key b) b

let probe_achievable ~key b ~ra ~rb =
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
  (* probes shift the right-hand side per (ra, rb), so every probe
     rebuilds its slot (the loaded key pins the probed point too). When
     the carried basis survives the new rhs the rebuild skips phase 1
     and [feasible] answers immediately; otherwise this is the
     documented case where phase 1 re-runs. *)
  let shape = Printf.sprintf "p|%d|%d" l (List.length b.Bound.terms) in
  let probe_key = Printf.sprintf "%s|%h|%h" key ra rb in
  let slot = slot_for ~shape ~key:probe_key ~nvars:l b constrs in
  Linprog.Solver.feasible slot.solver

let achievable_keyed ~key b ~ra ~rb =
  if ra < -1e-12 || rb < -1e-12 then false
  else
    Engine.Memo.find_or_add feasibility_cache (key, ra, rb) (fun () ->
        probe_achievable ~key b ~ra ~rb)

let achievable b ~ra ~rb = achievable_keyed ~key:(bound_key b) b ~ra ~rb

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
let sweep_results ~caller ~key ~weights b =
  if weights < 2 then invalid_arg (caller ^ ": weights < 2");
  let wbuf = scratch weight_scratch ~cap:weights in
  let denom = float_of_int (weights + 1) in
  for i = 0 to weights - 1 do
    Float.Array.unsafe_set wbuf i (float_of_int (i + 1) /. denom)
  done;
  let interior = List.init weights (Float.Array.unsafe_get wbuf) in
  let sweep =
    Engine.Pool.map
      (fun w -> max_weighted_keyed ~key b ~wa:w ~wb:(1. -. w))
      interior
  in
  (max_rb_keyed ~key b :: List.rev sweep) @ [ max_ra_keyed ~key b ]

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

let boundary_keyed ~key ?(weights = default_weights) b =
  Engine.Memo.find_or_add boundary_cache (key, weights) (fun () ->
      Telemetry.Span.with_span ~cat:"region" "region.boundary"
        ~args:[ ("weights", Telemetry.Json.Int weights) ]
      @@ fun () ->
      let all =
        sweep_results ~caller:"Rate_region.boundary" ~key ~weights b
      in
      let buf = scratch point_scratch ~cap:(2 * List.length all) in
      let kept = dedup_into buf all in
      List.init kept (fun i ->
          Numerics.Vec2.make
            (Float.Array.unsafe_get buf (2 * i))
            (Float.Array.unsafe_get buf ((2 * i) + 1)))
      |> List.sort (fun (p : Numerics.Vec2.t) (q : Numerics.Vec2.t) ->
             compare (p.Numerics.Vec2.x, p.Numerics.Vec2.y)
               (q.Numerics.Vec2.x, q.Numerics.Vec2.y)))

let boundary ?weights b = boundary_keyed ~key:(bound_key b) ?weights b

let polygon_keyed ~key ?(weights = default_weights) b =
  Engine.Memo.find_or_add polygon_cache (key, weights) (fun () ->
      Telemetry.Span.with_span ~cat:"region" "region.polygon" (fun () ->
          Numerics.Polygon.down_closure (boundary_keyed ~key ~weights b)))

let polygon ?weights b = polygon_keyed ~key:(bound_key b) ?weights b

let area ?weights b = Numerics.Polygon.area (polygon ?weights b)

let contains_region ?weights big small =
  let key = bound_key big in
  List.for_all
    (fun (p : Numerics.Vec2.t) ->
      achievable_keyed ~key big ~ra:p.Numerics.Vec2.x ~rb:p.Numerics.Vec2.y)
    (boundary ?weights small)

let distance_outside b ~ra ~rb =
  let key = bound_key b in
  if achievable_keyed ~key b ~ra ~rb then 0.
  else
    Numerics.Polygon.distance_to_boundary (polygon_keyed ~key b)
      (Numerics.Vec2.make ra rb)

let max_product ?weights b =
  let pts = boundary ?weights b in
  (* the product is a quadratic along each frontier edge; its interior
     critical point is t* = -(x0 dy + y0 dx) / (2 dx dy) *)
  let edge_best (p : Numerics.Vec2.t) (q : Numerics.Vec2.t) =
    let candidates =
      let dx = q.Numerics.Vec2.x -. p.Numerics.Vec2.x in
      let dy = q.Numerics.Vec2.y -. p.Numerics.Vec2.y in
      let interior =
        if abs_float (dx *. dy) < 1e-15 then []
        else begin
          let t =
            -.((p.Numerics.Vec2.x *. dy) +. (p.Numerics.Vec2.y *. dx))
            /. (2. *. dx *. dy)
          in
          if t > 0. && t < 1. then [ Numerics.Vec2.lerp p q t ] else []
        end
      in
      p :: q :: interior
    in
    Numerics.Float_utils.max_by
      (fun (v : Numerics.Vec2.t) -> v.Numerics.Vec2.x *. v.Numerics.Vec2.y)
      candidates
  in
  match pts with
  | [] -> Numerics.Vec2.zero
  | [ p ] -> p
  | first :: rest ->
    let _, best =
      List.fold_left
        (fun (prev, best) q ->
          let cand = edge_best prev q in
          let better =
            cand.Numerics.Vec2.x *. cand.Numerics.Vec2.y
            > best.Numerics.Vec2.x *. best.Numerics.Vec2.y
          in
          (q, if better then cand else best))
        (first, first) rest
    in
    best

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
    sweep_results ~caller:"Rate_region.boundary_with_schedules"
      ~key:(bound_key b) ~weights b
  in
  (* dedup by rate pair, keeping the first schedule seen for it *)
  let close a b' =
    abs_float (a.ra -. b'.ra) < 1e-7 && abs_float (a.rb -. b'.rb) < 1e-7
  in
  List.fold_left
    (fun acc r -> if List.exists (close r) acc then acc else r :: acc)
    [] all
  |> List.sort (fun a b' -> compare (a.ra, a.rb) (b'.ra, b'.rb))
