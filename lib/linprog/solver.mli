(** Reusable warm-start simplex engine: the one LP front-end.

    Problems are stated over non-negative variables [x >= 0]: maximise
    [c . x] subject to a list of linear constraints, each of the form
    [a . x (<= | >= | =) b]. Build a {!t} per constraint system with
    {!create} (tableau constructed once, phase 1 run once); then every
    {!reoptimize_into} starts phase 2 from the basis the previous solve
    ended on. A cold solve is [create] plus one [reoptimize_into]; to
    minimise [c . x], maximise [-c . x]. A basic feasible solution stays
    feasible when only the objective changes, so phase 1 never re-runs
    on an objective sweep and most solves finish in a handful of
    pivots. {!rebuild} reloads the instance with a different constraint
    system in place (no allocation when the structural shape matches)
    and carries the previous optimal basis across when it verifies
    feasible against the new coefficients — the common case for
    sweeps over per-block fading draws, where consecutive systems share
    a binding structure.

    Internals: the numeric core is {!Kernel} — one flat row-major
    [floatarray] tableau with allocation-free elimination, pricing and
    ratio-test loops — and all scratch is preallocated in the instance,
    so a warm {!reoptimize_into} allocates zero words end to end
    (telemetry included). Pricing is Dantzig's most-positive
    reduced-cost rule with an automatic sticky fallback to Bland's rule
    after a run of degenerate pivots (Bland cannot cycle, so
    termination is unconditional); the leaving row is the minimum
    ratio, lowest basis index among ties.

    {b Ownership contract:} an instance is mutable state and is NOT
    re-entrant — never share one between domains. Given the same
    constraint system and the same sequence of objectives, an instance
    always produces the same pivots and the same solutions bit-for-bit,
    on any domain. The rate-region layer relies on both: it keys
    instances per (LP shape, domain) via [Domain.DLS]; see the
    "LP solver architecture" section of [docs/ENGINE.md]. The test
    suite checks this engine against a vertex-enumeration oracle that
    shares no code with it.

    {b Telemetry:} every recorded solve updates [linprog.solves],
    [linprog.pivots] and [linprog.pivots_per_solve], plus
    [linprog.warm_solves] / [linprog.phase1_skipped] /
    [linprog.pivots_per_warm_solve] for solves that started from a
    previously optimal basis. Row eliminations spent refactorising a
    carried basis are basis factorisation, not simplex iterations; they
    are kept separate in [linprog.refactor_eliminations]. These are
    write-only observations and never influence the solution path. *)

type relation = Le | Ge | Eq

type constr = {
  coeffs : float array;  (** one coefficient per variable *)
  relation : relation;
  rhs : float;
}

val constr : float array -> relation -> float -> constr
(** Convenience constructor. *)

type t

val create : nvars:int -> constrs:constr list -> t
(** Build a solver for the given constraint system over [nvars]
    non-negative variables and establish a feasible basis (phase 1).
    Raises [Invalid_argument] on an arity mismatch. The phase-1 pivots
    are attributed to the first solve recorded on the instance. *)

val pivots : t -> int
(** Pivots this instance has added to [linprog.pivots] so far, over all
    its recorded solves. Unlike a before/after reading of that
    process-wide counter, it cannot see solves on other domains. *)

type verdict = Optimal | Unbounded | Infeasible
(** {!reoptimize_into}'s result — constant constructors only, so
    returning one never allocates. *)

val reoptimize_into : t -> c:float array -> x:float array -> verdict
(** [reoptimize_into t ~c ~x] maximises [c . x] over the currently
    loaded system, warm-starting from the basis of the previous solve
    (or the phase-1 basis right after {!create}/{!rebuild}), and records
    one solve in telemetry. It returns [Infeasible] immediately when
    the loaded system was proven infeasible. The solution is written
    into the caller-owned [x], which must have at least [nvars + 1]
    slots: on [Optimal], [x.(0 .. nvars-1)] receive the optimal point
    (unused variables zeroed, negative zeros normalised) and
    [x.(nvars)] the objective value; on [Unbounded]/[Infeasible] the
    contents of [x] are unspecified. A warm call allocates zero words,
    which is what keeps the [linprog.alloc_bytes] budget at its floor —
    callers running sweeps should preallocate [c] and [x] once and
    reuse them. Raises [Invalid_argument] when [c] or [x] has the
    wrong arity. *)

val rebuild : t -> constrs:constr list -> unit
(** Replace the loaded constraint system in place ([nvars] is fixed at
    {!create}). When the new system has the same structural shape (row
    count and per-row relations after sign normalisation), the previous
    optimal basis is refactorised against the new coefficients and, if
    it verifies feasible, phase 1 is skipped; otherwise (shape change,
    singular basis, or an infeasible carried basis) the tableau is
    reloaded and phase 1 re-runs from scratch. *)

val feasible : t -> bool
(** Whether the currently loaded system has any non-negative solution.
    Records one solve (this is the probe entry point: pair it with
    {!rebuild} to re-test shifted right-hand sides; a successful basis
    carry answers without any phase-1 work). *)
