(** Rate regions induced by a bound system, computed exactly by linear
    programming.

    For a bound system [B] (see {!Bound}), the achievable set
    [{(Ra, Rb) : exists Delta in simplex, all constraints hold}] is the
    projection of a polytope and hence a convex polygon in the positive
    quadrant, down-closed by construction. Its boundary is traced by
    maximising [w Ra + (1-w) Rb] over a sweep of weights — each LP also
    yields the optimising phase schedule. *)

type opt_result = {
  ra : float;
  rb : float;
  deltas : float array;  (** optimal phase durations (sum to 1) *)
}

val sum : opt_result -> float
(** [ra +. rb]. *)

val lp_constraints : Bound.t -> int * Linprog.Solver.constr list
(** The raw LP behind every query on this region: variable count and
    constraint rows over [x = [Ra; Rb; d_1; ...; d_L]] (the bound's
    terms as [<=] rows plus the duration simplex equality). Exposed so
    harnesses (the bench's warm-solve timings, the tests' LP oracle)
    can drive {!Linprog.Solver} on the exact production system;
    ordinary callers never need it. *)

val max_weighted : Bound.t -> wa:float -> wb:float -> opt_result
(** Maximise [wa Ra + wb Rb]; weights must be non-negative, not both 0.
    Raises [Failure] if the LP misbehaves (cannot happen for bound
    systems built by {!Gaussian} — they are bounded and feasible).

    Solutions are memoized in a process-wide thread-safe cache keyed on
    the bound's canonical coefficient signature and the weight pair
    (see [docs/ENGINE.md]); repeated sweeps over overlapping scenarios
    reuse LP solutions instead of re-solving. The cache never changes
    results — only whether the simplex solver actually runs. *)

val clear_cache : unit -> unit
(** Drop all memoized LP solutions and feasibility probes (useful for
    timing cold paths; never needed for correctness). *)

val max_sum_rate : Bound.t -> opt_result
(** The optimal sum rate and the durations achieving it (the quantity
    plotted in the paper's Fig. 3). *)

val max_ra : Bound.t -> opt_result
(** Lexicographic: maximise Ra, then Rb (the region's rightmost corner). *)

val max_rb : Bound.t -> opt_result

val achievable : Bound.t -> ra:float -> rb:float -> bool
(** Exact membership test for the rate pair (an LP feasibility probe over
    the phase durations, memoized like {!max_weighted}). *)

val boundary : ?weights:int -> Bound.t -> Numerics.Vec2.t list
(** [boundary b] is the list of Pareto-frontier vertices obtained from a
    sweep of [weights] (default 65) weight vectors, deduplicated, ordered
    by increasing Ra. *)

val polygon : ?weights:int -> Bound.t -> Numerics.Vec2.t list
(** The full down-closed region polygon (counter-clockwise, includes the
    origin and the axis intercepts) — suitable for area, containment and
    plotting. *)

val area : ?weights:int -> Bound.t -> float

val contains_region : ?weights:int -> Bound.t -> Bound.t -> bool
(** [contains_region big small]: every boundary vertex of [small] is
    achievable under [big] (exact for convex regions). *)

val distance_outside : Bound.t -> ra:float -> rb:float -> float
(** 0 when the pair is achievable; otherwise the Euclidean distance from
    the pair to the region's polygon — used to quantify by how much an
    HBC point escapes the MABC/TDBC outer bounds. *)

val max_product : ?weights:int -> Bound.t -> Numerics.Vec2.t
(** The proportional-fair operating point: the rate pair on the Pareto
    frontier maximising [Ra * Rb] (equivalently [log Ra + log Rb]).
    Exact up to the boundary discretisation: the product is maximised in
    closed form on every frontier edge. *)

val union_polygon : ?weights:int -> Bound.t list -> Numerics.Vec2.t list
(** Down-closed convex hull of the union of several regions — the
    time-sharing operation behind the |Q| > 1 form of the theorems
    (Fenchel–Bunt caps useful |Q| at 5): e.g. the discrete bounds
    evaluated at several input distributions and then time-shared.
    Raises [Invalid_argument] on an empty list. *)

val binding_terms : ?eps:float -> Bound.t -> opt_result -> Bound.term list
(** The constraints tight (within [eps], default 1e-7) at the given
    operating point — i.e. which cut-set/decoding step limits the
    protocol there. *)

val boundary_with_schedules : ?weights:int -> Bound.t -> opt_result list
(** Like {!boundary} but keeps, for every Pareto vertex, the phase
    durations achieving it — what a scheduler actually needs to operate
    at that point. Ordered by increasing Ra. *)
