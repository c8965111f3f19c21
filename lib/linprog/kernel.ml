(* Flat row-major simplex tableau kernel.

   One contiguous [floatarray] holds the whole m x (ncols + 1) tableau
   (the right-hand side lives in the last column of each row), so the
   elimination, pricing and ratio-test loops walk a single unboxed
   buffer with [unsafe_get]/[unsafe_set] over precomputed row offsets —
   no per-row pointer chase, no bounds checks, and no allocation
   anywhere in the hot operations. The kernel owns every scratch buffer
   a phase needs ([reduced], [cost], [basis], [allowed]); [resize]
   grows them geometrically-never-shrinks, so reloading a system of the
   same shape touches no allocator at all.

   The arithmetic is kept operation-for-operation identical to the
   historical nested-array tableau it replaced: eliminations scale then
   subtract in the same order, and reduced costs are accumulated per
   column in ascending row order, so pivot sequences — and therefore
   every figure and solver output — are bit-for-bit unchanged.

   Safety invariants for the unsafe accesses (maintained by [resize]):
     length a       >= nrows * stride,   stride = ncols + 1
     length basis   >= nrows
     length allowed >= ncols
     length reduced >= ncols,   length cost >= ncols
   and every [row]/[col] argument comes from a loop bounded by
   [nrows]/[ncols]. *)

type t = {
  mutable nrows : int;        (* active rows; rows may be dropped *)
  mutable ncols : int;        (* structural + slack + artificial *)
  mutable stride : int;       (* ncols + 1: rhs at column ncols *)
  mutable a : floatarray;     (* row-major tableau, nrows x stride *)
  mutable basis : int array;  (* basis.(i): column basic in row i *)
  mutable allowed : bool array; (* columns permitted to enter *)
  mutable reduced : floatarray; (* reduced-cost scratch *)
  mutable cost : floatarray;    (* current objective over all columns *)
  mutable degenerate : bool;  (* last ratio test hit a zero ratio *)
}

let eps = 1e-9

(* Element updates spent in elimination loops (each is one multiply +
   one subtract, or one divide on the pivot row): a deterministic flops
   proxy for the kernel, counted once per elimination so the hot loop
   itself stays allocation- and atomic-free. *)
let row_ops_counter = Telemetry.Metrics.counter "linprog.kernel_row_ops"

let create ~nrows ~ncols =
  let stride = ncols + 1 in
  { nrows;
    ncols;
    stride;
    a = Float.Array.make (max 1 (nrows * stride)) 0.;
    basis = Array.make (max 1 nrows) 0;
    allowed = Array.make (max 1 ncols) true;
    reduced = Float.Array.make (max 1 ncols) 0.;
    cost = Float.Array.make (max 1 ncols) 0.;
    degenerate = false;
  }

(* Set the active geometry, growing backing buffers only when the new
   system does not fit the current capacity. Contents are unspecified
   afterwards — callers reload via [clear]/[set]. *)
let resize t ~nrows ~ncols =
  let stride = ncols + 1 in
  if nrows * stride > Float.Array.length t.a then
    t.a <- Float.Array.make (nrows * stride) 0.;
  if nrows > Array.length t.basis then t.basis <- Array.make nrows 0;
  if ncols > Array.length t.allowed then begin
    t.allowed <- Array.make ncols true;
    t.reduced <- Float.Array.make ncols 0.;
    t.cost <- Float.Array.make ncols 0.
  end;
  t.nrows <- nrows;
  t.ncols <- ncols;
  t.stride <- stride

let nrows t = t.nrows
let ncols t = t.ncols

let clear t = Float.Array.fill t.a 0 (t.nrows * t.stride) 0.

let get t i j = Float.Array.unsafe_get t.a ((i * t.stride) + j)
let set t i j v = Float.Array.unsafe_set t.a ((i * t.stride) + j) v
let rhs t i = get t i t.ncols

let basis t i = Array.unsafe_get t.basis i
let set_basis t i b = Array.unsafe_set t.basis i b

let allow_all t = Array.fill t.allowed 0 t.ncols true

let bar_from t j0 =
  for j = j0 to t.ncols - 1 do
    Array.unsafe_set t.allowed j false
  done

(* Load objective coefficients: the first [n] columns from [c], the
   rest (slacks, artificials) zero. *)
let load_cost t c n =
  Float.Array.fill t.cost 0 t.ncols 0.;
  for j = 0 to n - 1 do
    Float.Array.unsafe_set t.cost j (Array.unsafe_get c j)
  done

(* Phase-1 objective: maximise -(sum of artificial columns). *)
let load_phase1_cost t ~first_artificial =
  Float.Array.fill t.cost 0 t.ncols 0.;
  for j = first_artificial to t.ncols - 1 do
    Float.Array.unsafe_set t.cost j (-1.)
  done

(* r_j = c_j - c_B . B^-1 A_j for every column, into [reduced].
   Row-major accumulation: initialise with c_j, then stream each row
   once, subtracting cb * a(i, j) across the row. Per column this
   performs the identical operation sequence (ascending i) as the
   column-major reference loop, so the results are bit-identical —
   while touching the tableau in cache order. Disallowed columns price
   to -inf so they can never enter. *)
let compute_reduced t =
  let n = t.ncols in
  let red = t.reduced and cost = t.cost and a = t.a in
  for j = 0 to n - 1 do
    Float.Array.unsafe_set red j (Float.Array.unsafe_get cost j)
  done;
  for i = 0 to t.nrows - 1 do
    let cb = Float.Array.unsafe_get cost (Array.unsafe_get t.basis i) in
    if cb <> 0. then begin
      let off = i * t.stride in
      for j = 0 to n - 1 do
        Float.Array.unsafe_set red j
          (Float.Array.unsafe_get red j
          -. (cb *. Float.Array.unsafe_get a (off + j)))
      done
    end
  done;
  for j = 0 to n - 1 do
    if not (Array.unsafe_get t.allowed j) then
      Float.Array.unsafe_set red j neg_infinity
  done

(* Bland: lowest-index column with positive reduced cost; -1 = optimal. *)
let price_bland t =
  let n = t.ncols and red = t.reduced in
  let j = ref 0 and found = ref (-1) in
  while !found < 0 && !j < n do
    if Float.Array.unsafe_get red !j > eps then found := !j;
    incr j
  done;
  !found

(* Dantzig: most positive reduced cost, lowest index on ties. *)
let price_dantzig t =
  let n = t.ncols and red = t.reduced in
  let best = ref eps and entering = ref (-1) in
  for j = 0 to n - 1 do
    let r = Float.Array.unsafe_get red j in
    if r > !best then begin
      best := r;
      entering := j
    end
  done;
  !entering

(* Minimum-ratio leaving row for an entering [col]; lowest basis index
   among ties; -1 = unbounded. Sets [degenerate] when the winning ratio
   is (numerically) zero. *)
let ratio_leave t ~col =
  let a = t.a and stride = t.stride and rhs_col = t.ncols in
  let leave = ref (-1) and best = ref infinity in
  for i = 0 to t.nrows - 1 do
    let off = i * stride in
    let ai = Float.Array.unsafe_get a (off + col) in
    if ai > eps then begin
      let ratio = Float.Array.unsafe_get a (off + rhs_col) /. ai in
      if
        ratio < !best -. eps
        || (abs_float (ratio -. !best) <= eps
           && !leave >= 0
           && Array.unsafe_get t.basis i < Array.unsafe_get t.basis !leave)
      then begin
        best := ratio;
        leave := i
      end
    end
  done;
  t.degenerate <- !leave >= 0 && !best <= eps;
  !leave

let degenerate t = t.degenerate

(* Gauss-Jordan elimination on the pivot (row, col): scale the pivot
   row, subtract it from every other row with a non-zero entry in
   [col], and make [col] basic in [row]. Identical arithmetic (and
   operation order) to the historical nested implementation. *)
let eliminate t ~row ~col =
  let a = t.a and stride = t.stride and ncols = t.ncols in
  let roff = row * stride in
  let p = Float.Array.unsafe_get a (roff + col) in
  for j = 0 to ncols do
    Float.Array.unsafe_set a (roff + j)
      (Float.Array.unsafe_get a (roff + j) /. p)
  done;
  let touched = ref 1 in
  for i = 0 to t.nrows - 1 do
    if i <> row then begin
      let off = i * stride in
      let factor = Float.Array.unsafe_get a (off + col) in
      if factor <> 0. then begin
        incr touched;
        for j = 0 to ncols do
          Float.Array.unsafe_set a (off + j)
            (Float.Array.unsafe_get a (off + j)
            -. (factor *. Float.Array.unsafe_get a (roff + j)))
        done
      end
    end
  done;
  Array.unsafe_set t.basis row col;
  Telemetry.Metrics.add row_ops_counter (!touched * stride)

(* Objective of the current basic solution, written into [dst.(at)]
   rather than returned: a float return would box across the module
   boundary, and this runs on the allocation-free warm path. *)
let objective_into t dst at =
  let a = t.a and cost = t.cost and stride = t.stride and rhs_col = t.ncols in
  let acc = ref 0. in
  for i = 0 to t.nrows - 1 do
    let cb = Float.Array.unsafe_get cost (Array.unsafe_get t.basis i) in
    if cb <> 0. then
      acc := !acc +. (cb *. Float.Array.unsafe_get a ((i * stride) + rhs_col))
  done;
  Array.unsafe_set dst at !acc

(* Boxing convenience for cold paths (phase-1 feasibility check). *)
let objective t =
  let b = [| 0. |] in
  objective_into t b 0;
  b.(0)

(* Basic solution over the structural variables, into a caller-owned
   buffer. IEEE negative zeros are normalised so downstream rendering
   never prints "-0" (same policy as the warm solver always had). *)
let solution_into t ~nvars ~x =
  Array.fill x 0 nvars 0.;
  let a = t.a and stride = t.stride and rhs_col = t.ncols in
  for i = 0 to t.nrows - 1 do
    let b = Array.unsafe_get t.basis i in
    if b < nvars then begin
      let v = Float.Array.unsafe_get a ((i * stride) + rhs_col) in
      Array.unsafe_set x b (if v = 0. then 0. else v)
    end
  done

(* Drop redundant row [i] by moving the last active row into its slot
   (value copy — same observable effect as the old row-pointer swap). *)
let drop_row t i =
  let last = t.nrows - 1 in
  if i < last then begin
    Float.Array.blit t.a (last * t.stride) t.a (i * t.stride) t.stride;
    t.basis.(i) <- t.basis.(last)
  end;
  t.nrows <- last
