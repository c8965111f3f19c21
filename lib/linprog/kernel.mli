(** Flat row-major simplex tableau kernel.

    The numeric core of {!Solver}: one contiguous unboxed [floatarray]
    holds the m x (ncols + 1) tableau (right-hand side in the last
    column), and every hot operation — elimination, pricing, ratio
    test, reduced costs — walks it with [unsafe_get]/[unsafe_set] over
    precomputed row offsets. No operation below allocates; all scratch
    ([reduced], [cost], [basis], [allowed]) is owned by the kernel and
    reused across solves, which is what makes the solver's warm
    [reoptimize_into] path allocation-free.

    The arithmetic is operation-for-operation identical to the
    historical nested [float array array] implementation, so pivot
    sequences and solutions are bit-for-bit unchanged — the flat layout
    only changes memory behaviour, never results.

    A kernel is mutable scratch, not a value: each solver owns exactly
    one and must not share it across domains (see the ownership
    contract in docs/ENGINE.md). Index arguments are not
    bounds-checked; every [row]/[col] must come from loops bounded by
    [nrows]/[ncols]. *)

type t

val create : nrows:int -> ncols:int -> t
(** Fresh kernel sized for an [nrows] x [ncols] system (plus the rhs
    column), zero-filled, all columns allowed. *)

val resize : t -> nrows:int -> ncols:int -> unit
(** Set the active geometry, reallocating backing buffers only when
    the new system exceeds current capacity. Contents are unspecified
    afterwards; reload via {!clear} and {!set}. *)

val nrows : t -> int
val ncols : t -> int

val clear : t -> unit
(** Zero the active tableau region. *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
(** Element access; column [ncols] is the right-hand side. *)

val rhs : t -> int -> float
(** [rhs t i] = [get t i (ncols t)]. *)

val basis : t -> int -> int
val set_basis : t -> int -> int -> unit
(** The column currently basic in a row. *)

val allow_all : t -> unit
val bar_from : t -> int -> unit
(** [bar_from t j0] forbids columns [j0 .. ncols-1] from entering the
    basis (artificials in phase 2). *)

val load_cost : t -> float array -> int -> unit
(** [load_cost t c n]: objective [c] over the first [n] (structural)
    columns, zero elsewhere. *)

val load_phase1_cost : t -> first_artificial:int -> unit
(** The phase-1 objective: -1 on every artificial column. *)

val compute_reduced : t -> unit
(** Reduced costs of every column against the loaded cost, into the
    kernel's scratch; disallowed columns price to [neg_infinity].
    Row-major accumulation, bit-identical to the column-major
    reference. *)

val price_bland : t -> int
(** Lowest-index column with reduced cost > 1e-9; -1 when optimal. *)

val price_dantzig : t -> int
(** Most positive reduced cost (lowest index on ties); -1 when
    optimal. *)

val ratio_leave : t -> col:int -> int
(** Minimum-ratio leaving row for entering column [col] (lowest basis
    index among ties); -1 when the column is unbounded. Records
    whether the winning ratio was degenerate — see {!degenerate}. *)

val degenerate : t -> bool
(** Whether the last {!ratio_leave} selected a (numerically) zero
    ratio — the stall signal for the solver's Dantzig-to-Bland
    fallback. *)

val eliminate : t -> row:int -> col:int -> unit
(** Gauss-Jordan pivot on (row, col): scales the pivot row, eliminates
    [col] from every other row, makes [col] basic in [row]. Element
    updates are accounted in the [linprog.kernel_row_ops] counter. *)

val objective_into : t -> float array -> int -> unit
(** Objective value of the current basic solution, written to
    [dst.(at)] (a float return would box on the warm path). *)

val objective : t -> float
(** Boxing convenience for cold paths. *)

val solution_into : t -> nvars:int -> x:float array -> unit
(** Basic solution over the [nvars] structural variables into a
    caller-owned buffer (zero-filled first; negative zeros
    normalised). *)

val drop_row : t -> int -> unit
(** Drop redundant row [i], moving the last active row into its slot. *)
