(* Tests for the simplex LP solver. *)

let check_float ?(eps = 1e-7) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* One [reoptimize_into] on [solver] into a fresh buffer: the verdict,
   plus [x] holding the optimal point in [x.(0 .. nvars-1)] and the
   objective in [x.(nvars)]. *)
let solve_on solver c =
  let x = Array.make (Array.length c + 1) 0. in
  (Linprog.Solver.reoptimize_into solver ~c ~x, x)

(* A cold solve: a fresh instance and one solve on it. *)
let solve_max c constrs =
  solve_on (Linprog.Solver.create ~nvars:(Array.length c) ~constrs) c

let objective x = x.(Array.length x - 1)

let expect_optimal = function
  | Linprog.Solver.Optimal, x -> x
  | Linprog.Solver.Unbounded, _ -> Alcotest.fail "unexpected: unbounded"
  | Linprog.Solver.Infeasible, _ -> Alcotest.fail "unexpected: infeasible"

let le = Linprog.Solver.Le
let ge = Linprog.Solver.Ge
let eq = Linprog.Solver.Eq
let c_ = Linprog.Solver.constr

(* ------------------------------------------------------------------ *)
(* Textbook instances                                                  *)
(* ------------------------------------------------------------------ *)

let test_basic_2d () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), obj 36 *)
  let s =
    expect_optimal
      (solve_max [| 3.; 5. |]
         [ c_ [| 1.; 0. |] le 4.;
           c_ [| 0.; 2. |] le 12.;
           c_ [| 3.; 2. |] le 18.;
         ])
  in
  check_float "objective" 36. (objective s);
  check_float "x" 2. s.(0);
  check_float "y" 6. s.(1)

let test_equality_constraint () =
  (* max x + y s.t. x + y = 5, x <= 3 -> obj 5 *)
  let s =
    expect_optimal
      (solve_max [| 1.; 1. |]
         [ c_ [| 1.; 1. |] eq 5.; c_ [| 1.; 0. |] le 3. ])
  in
  check_float "objective" 5. (objective s)

let test_ge_constraint () =
  (* min x + 2y s.t. x + y >= 4, x <= 3, y <= 3 -> (3, 1), obj 5;
     solved as max -x - 2y *)
  let s =
    expect_optimal
      (solve_max [| -1.; -2. |]
         [ c_ [| 1.; 1. |] ge 4.;
           c_ [| 1.; 0. |] le 3.;
           c_ [| 0.; 1. |] le 3.;
         ])
  in
  check_float "objective" (-5.) (objective s);
  check_float "x" 3. s.(0);
  check_float "y" 1. s.(1)

let test_unbounded () =
  match solve_max [| 1.; 0. |] [ c_ [| 0.; 1. |] le 1. ] with
  | Linprog.Solver.Unbounded, _ -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_infeasible () =
  match
    solve_max [| 1. |] [ c_ [| 1. |] le 1.; c_ [| 1. |] ge 2. ]
  with
  | Linprog.Solver.Infeasible, _ -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_negative_rhs () =
  (* -x <= -2 means x >= 2; max -x -> x = 2 *)
  let s = expect_optimal (solve_max [| -1. |] [ c_ [| -1. |] le (-2.) ]) in
  check_float "objective" (-2.) (objective s)

let test_degenerate () =
  (* degenerate vertex: three constraints meet at (1,1) *)
  let s =
    expect_optimal
      (solve_max [| 1.; 1. |]
         [ c_ [| 1.; 0. |] le 1.;
           c_ [| 0.; 1. |] le 1.;
           c_ [| 1.; 1. |] le 2.;
         ])
  in
  check_float "objective" 2. (objective s)

let test_redundant_equalities () =
  (* duplicated equality rows exercise the redundant-row drop *)
  let s =
    expect_optimal
      (solve_max [| 1.; 1. |]
         [ c_ [| 1.; 1. |] eq 3.;
           c_ [| 1.; 1. |] eq 3.;
           c_ [| 1.; 0. |] le 2.;
         ])
  in
  check_float "objective" 3. (objective s)

let test_zero_objective () =
  let s = expect_optimal (solve_max [| 0.; 0. |] [ c_ [| 1.; 1. |] le 1. ]) in
  check_float "objective" 0. (objective s)

let feasible ~nvars constrs =
  Linprog.Solver.feasible (Linprog.Solver.create ~nvars ~constrs)

let test_feasible () =
  Alcotest.(check bool) "feasible" true
    (feasible ~nvars:2 [ c_ [| 1.; 1. |] le 1. ]);
  Alcotest.(check bool) "infeasible" false
    (feasible ~nvars:1 [ c_ [| 1. |] le 1.; c_ [| 1. |] ge 2. ])

let test_klee_minty_3 () =
  (* Klee-Minty cube in 3 dimensions: optimum is 5^3 / ... classic form:
     max 100x1 + 10x2 + x3
     s.t. x1 <= 1; 20x1 + x2 <= 100; 200x1 + 20x2 + x3 <= 10000
     optimum 10000 at (0, 0, 10000) *)
  let s =
    expect_optimal
      (solve_max [| 100.; 10.; 1. |]
         [ c_ [| 1.; 0.; 0. |] le 1.;
           c_ [| 20.; 1.; 0. |] le 100.;
           c_ [| 200.; 20.; 1. |] le 10000.;
         ])
  in
  check_float "objective" 10000. (objective s)

let test_phase_duration_shape () =
  (* the exact LP shape used for MABC rate regions:
     max Ra + Rb s.t. Ra <= 2 d1, Ra <= 3 d2, Rb <= 2 d1, Rb <= 3 d2,
     Ra + Rb <= 3 d1, d1 + d2 = 1.
     Substituting: optimal d1 solves 3 d1 = 2 * 3 (1 - d1)... the binding
     constraints are Ra+Rb <= 3 d1 and Ra,Rb <= 3 d2 each. Sum rate =
     min(3 d1, 6 (1 - d1) capped by per-user 2 d1 each: Ra+Rb <= 4 d1).
     max over d1 of min(3 d1, 4 d1, 6(1-d1)) -> 3 d1 = 6 - 6 d1 ->
     d1 = 2/3, sum = 2. *)
  let s =
    expect_optimal
      (solve_max
         [| 1.; 1.; 0.; 0. |] (* Ra Rb d1 d2 *)
         [ c_ [| 1.; 0.; -2.; 0. |] le 0.;
           c_ [| 1.; 0.; 0.; -3. |] le 0.;
           c_ [| 0.; 1.; -2.; 0. |] le 0.;
           c_ [| 0.; 1.; 0.; -3. |] le 0.;
           c_ [| 1.; 1.; -3.; 0. |] le 0.;
           c_ [| 0.; 0.; 1.; 1. |] eq 1.;
         ])
  in
  check_float "sum rate" 2. (objective s);
  check_float "d1" (2. /. 3.) s.(2)

(* ------------------------------------------------------------------ *)
(* Properties: cross-check against brute-force vertex enumeration      *)
(* ------------------------------------------------------------------ *)

(* The oracle: brute-force vertex enumeration, sharing no code with
   [Linprog]. A bounded feasible LP over x >= 0 attains its optimum at a
   vertex, and every vertex is the unique solution of [nvars] linearly
   independent active constraints: all equality rows plus a choice of
   Le rows and bounds x_j >= 0. Enumerate every such choice, solve it
   with the elimination below, keep the feasible points, and return the
   best objective ([None] when no vertex is feasible). The caller must
   know the LP is bounded: an unbounded one still reports its best
   vertex. *)

(* Gaussian elimination with partial pivoting on a fresh n x n system;
   [None] when the system is (numerically) singular. *)
let solve_dense a b =
  let n = Array.length b in
  let a = Array.map Array.copy a and b = Array.copy b in
  let singular = ref false in
  for k = 0 to n - 1 do
    if not !singular then begin
      let p = ref k in
      for i = k + 1 to n - 1 do
        if abs_float a.(i).(k) > abs_float a.(!p).(k) then p := i
      done;
      if abs_float a.(!p).(k) < 1e-10 then singular := true
      else begin
        let t = a.(k) in
        a.(k) <- a.(!p);
        a.(!p) <- t;
        let t = b.(k) in
        b.(k) <- b.(!p);
        b.(!p) <- t;
        for i = k + 1 to n - 1 do
          let f = a.(i).(k) /. a.(k).(k) in
          for j = k to n - 1 do
            a.(i).(j) <- a.(i).(j) -. (f *. a.(k).(j))
          done;
          b.(i) <- b.(i) -. (f *. b.(k))
        done
      end
    end
  done;
  if !singular then None
  else begin
    let x = Array.make n 0. in
    for i = n - 1 downto 0 do
      let acc = ref b.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (a.(i).(j) *. x.(j))
      done;
      x.(i) <- !acc /. a.(i).(i)
    done;
    Some x
  end

let brute_force ~nvars c constrs =
  let dot a x =
    let acc = ref 0. in
    Array.iteri (fun j aj -> acc := !acc +. (aj *. x.(j))) a;
    !acc
  in
  (* Ge rows enter as negated Le rows *)
  let eqs, les =
    List.partition_map
      (fun (ct : Linprog.Solver.constr) ->
        match ct.relation with
        | Linprog.Solver.Eq -> Left (ct.coeffs, ct.rhs)
        | Linprog.Solver.Le -> Right (ct.coeffs, ct.rhs)
        | Linprog.Solver.Ge ->
          Right (Array.map Float.neg ct.coeffs, -.ct.rhs))
      constrs
  in
  (* x_j >= 0 as the active row e_j . x = 0 *)
  let bounds =
    List.init nvars (fun j ->
        (Array.init nvars (fun i -> if i = j then 1. else 0.), 0.))
  in
  let tol r = 1e-9 *. (1. +. abs_float r) in
  let feasible x =
    Array.for_all (fun xj -> xj >= -1e-9) x
    && List.for_all (fun (a, r) -> dot a x <= r +. tol r) les
    && List.for_all (fun (a, r) -> abs_float (dot a x -. r) <= tol r) eqs
  in
  let best = ref None in
  let consider active =
    let a = Array.of_list (List.map fst active)
    and b = Array.of_list (List.map snd active) in
    match solve_dense a b with
    | Some x when feasible x ->
      let v = dot c x in
      best := Some (match !best with Some w -> Float.max v w | None -> v)
    | Some _ | None -> ()
  in
  (* every way to pick [k] active rows from [pool], in order *)
  let rec choose k pool acc =
    if k = 0 then consider (eqs @ List.rev acc)
    else
      match pool with
      | [] -> ()
      | r :: rest ->
        choose (k - 1) rest (r :: acc);
        if List.length rest >= k then choose k rest acc
  in
  let k = nvars - List.length eqs in
  if k >= 0 then choose k (les @ bounds) [];
  !best

let lp_2d_gen =
  (* random bounded-feasible 2-D LP: positive coefficients guarantee
     boundedness, rhs > 0 guarantees feasibility (origin works) *)
  QCheck.(
    pair
      (pair (float_range 0.1 5.) (float_range 0.1 5.))
      (list_of_size Gen.(int_range 1 6)
         (triple (float_range 0.1 5.) (float_range 0.1 5.)
            (float_range 0.5 20.))))

let prop_simplex_matches_brute_force =
  QCheck.Test.make ~count:300 ~name:"simplex = vertex enumeration (2D)"
    lp_2d_gen (fun ((c1, c2), rows) ->
      let constrs =
        List.map (fun (a, b, r) -> c_ [| a; b |] le r) rows
      in
      let c = [| c1; c2 |] in
      match (solve_max c constrs, brute_force ~nvars:2 c constrs) with
      | (Linprog.Solver.Optimal, s), Some best ->
        abs_float (objective s -. best) < 1e-5
      | _, _ -> false)

let prop_solution_is_feasible =
  QCheck.Test.make ~count:300 ~name:"optimal point satisfies constraints"
    lp_2d_gen (fun ((c1, c2), rows) ->
      let constrs = List.map (fun (a, b, r) -> c_ [| a; b |] le r) rows in
      match solve_max [| c1; c2 |] constrs with
      | Linprog.Solver.Optimal, x ->
        x.(0) >= -1e-7 && x.(1) >= -1e-7
        && List.for_all
             (fun (a, b, r) -> (a *. x.(0)) +. (b *. x.(1)) <= r +. 1e-6)
             rows
      | _ -> false)

let prop_duality_bound =
  (* weak duality sanity: scaling the objective scales the optimum *)
  QCheck.Test.make ~count:100 ~name:"objective scaling" lp_2d_gen
    (fun ((c1, c2), rows) ->
      let constrs = List.map (fun (a, b, r) -> c_ [| a; b |] le r) rows in
      match
        (solve_max [| c1; c2 |] constrs, solve_max [| 2. *. c1; 2. *. c2 |] constrs)
      with
      | (Linprog.Solver.Optimal, s1), (Linprog.Solver.Optimal, s2) ->
        abs_float ((2. *. objective s1) -. objective s2) < 1e-5
      | _ -> false)

(* Mixed Le/Ge systems: rows a x + b y (<=|>=) r with a, b > 0 and
   r > 0. Le rows keep the system bounded near the origin; Ge rows can
   push it infeasible, which is exactly the regime where [feasible] and
   [maximize] must agree on the verdict. *)
let lp_mixed_gen =
  QCheck.(
    pair
      (pair (float_range 0.1 5.) (float_range 0.1 5.))
      (list_of_size Gen.(int_range 2 6)
         (quad bool (float_range 0.1 5.) (float_range 0.1 5.)
            (float_range 0.5 20.))))

let mixed_constrs rows =
  List.map
    (fun (is_ge, a, b, r) -> c_ [| a; b |] (if is_ge then ge else le) r)
    rows

let prop_feasible_agrees_with_maximize =
  QCheck.Test.make ~count:300 ~name:"feasible agrees with maximize status"
    lp_mixed_gen (fun ((c1, c2), rows) ->
      let constrs = mixed_constrs rows in
      let f = feasible ~nvars:2 constrs in
      match solve_max [| c1; c2 |] constrs with
      | (Linprog.Solver.Optimal | Linprog.Solver.Unbounded), _ -> f
      | Linprog.Solver.Infeasible, _ -> not f)

let prop_duplicate_rows_invariant =
  QCheck.Test.make ~count:300 ~name:"duplicating a constraint keeps optimum"
    lp_2d_gen (fun ((c1, c2), rows) ->
      let constrs = List.map (fun (a, b, r) -> c_ [| a; b |] le r) rows in
      let doubled = constrs @ constrs in
      match
        (solve_max [| c1; c2 |] constrs, solve_max [| c1; c2 |] doubled)
      with
      | (Linprog.Solver.Optimal, s1), (Linprog.Solver.Optimal, s2) ->
        abs_float (objective s1 -. objective s2) < 1e-6
      | _ -> false)

let prop_scaled_rows_invariant =
  (* scaling a row a x <= r to k a x <= k r (k > 0) describes the same
     half-plane, so the optimum must not move *)
  QCheck.Test.make ~count:300 ~name:"scaling a constraint keeps optimum"
    QCheck.(pair lp_2d_gen (float_range 0.2 10.))
    (fun (((c1, c2), rows), k) ->
      let constrs = List.map (fun (a, b, r) -> c_ [| a; b |] le r) rows in
      let scaled =
        List.map (fun (a, b, r) -> c_ [| k *. a; k *. b |] le (k *. r)) rows
      in
      match
        (solve_max [| c1; c2 |] constrs, solve_max [| c1; c2 |] scaled)
      with
      | (Linprog.Solver.Optimal, s1), (Linprog.Solver.Optimal, s2) ->
        abs_float (objective s1 -. objective s2) < 1e-5
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Warm-start solver vs the oracle                                     *)
(* ------------------------------------------------------------------ *)

(* The oracle's verdict on a [mixed_constrs] system. Every row has
   positive coefficients, so any Le row bounds the region, while a
   Ge-only region contains every direction d >= 0 and the LP is bounded
   exactly when no entry of [c] is positive. A feasible region in
   x >= 0 always has a vertex, so no vertex means infeasible. *)
let oracle_mixed rows c =
  match brute_force ~nvars:2 c (mixed_constrs rows) with
  | None -> `Infeasible
  | Some best ->
    if
      List.exists (fun (is_ge, _, _, _) -> not is_ge) rows
      || Array.for_all (fun v -> v <= 0.) c
    then `Optimal best
    else `Unbounded

(* Verdict classes must match; optimal objectives agree to 1e-7
   relative. The optimal *points* may legitimately differ on a
   degenerate face. *)
let matches_oracle rows c (verdict, x) =
  match (verdict, oracle_mixed rows c) with
  | Linprog.Solver.Optimal, `Optimal best ->
    abs_float (objective x -. best) <= 1e-7 *. (1. +. abs_float best)
  | Linprog.Solver.Unbounded, `Unbounded
  | Linprog.Solver.Infeasible, `Infeasible ->
    true
  | _ -> false

let objective_seq_gen =
  QCheck.(
    pair lp_mixed_gen
      (list_of_size Gen.(int_range 1 8)
         (pair (float_range (-5.) 5.) (float_range (-5.) 5.))))

let prop_solver_objective_sequence =
  (* one instance, many objectives: every warm-started solve in the
     sequence must match the oracle, including sign flips that turn an
     unbounded direction on and off *)
  QCheck.Test.make ~count:200
    ~name:"warm-started objective sweep matches vertex enumeration"
    objective_seq_gen (fun (((c1, c2), rows), cs) ->
      let solver =
        Linprog.Solver.create ~nvars:2 ~constrs:(mixed_constrs rows)
      in
      List.for_all
        (fun (a, b) ->
          let c = [| a; b |] in
          matches_oracle rows c (solve_on solver c))
        ((c1, c2) :: cs))

(* Two systems sharing a structural shape (row count and relations), so
   [rebuild] attempts to carry the optimal basis of the first across to
   the second. *)
let lp_paired_gen =
  QCheck.(
    pair
      (pair (float_range 0.1 5.) (float_range 0.1 5.))
      (list_of_size Gen.(int_range 2 6)
         (pair
            (quad bool (float_range 0.1 5.) (float_range 0.1 5.)
               (float_range 0.5 20.))
            (triple (float_range 0.1 5.) (float_range 0.1 5.)
               (float_range 0.5 20.)))))

let prop_solver_rebuild_matches_oracle =
  QCheck.Test.make ~count:300
    ~name:"rebuild (basis carry) matches vertex enumeration"
    lp_paired_gen (fun ((c1, c2), rows) ->
      let rows1 = List.map fst rows in
      let rows2 =
        List.map (fun ((is_ge, _, _, _), (a, b, r)) -> (is_ge, a, b, r)) rows
      in
      let constrs2 = mixed_constrs rows2 in
      let c = [| c1; c2 |] in
      let solver =
        Linprog.Solver.create ~nvars:2 ~constrs:(mixed_constrs rows1)
      in
      (* establish an optimal basis on system 1 so the rebuild has
         something to carry (create alone only leaves a phase-1 basis) *)
      ignore (solve_on solver c);
      Linprog.Solver.rebuild solver ~constrs:constrs2;
      matches_oracle rows2 c (solve_on solver c)
      && Bool.equal
           (Linprog.Solver.feasible solver)
           (oracle_mixed rows2 c <> `Infeasible))

(* ------------------------------------------------------------------ *)
(* Solver stress: basis carry across a long structurally-similar sweep *)
(* ------------------------------------------------------------------ *)

(* One solver instance carried across 120 LPs that share a structural
   shape (same variable count, row count and relations, perturbed
   coefficients) — the pattern the rate-table sweeps produce. Every
   warm objective must match the vertex-enumeration oracle, and the
   whole warm sweep must stay within the pivot budget of a fresh
   instance per system (the point of carrying the basis). *)
let test_solver_stress_basis_carry () =
  let nvars = 6 and nrows = 8 and systems = 120 in
  let rng = Prob.Rng.create ~seed:2024 in
  let fresh_system () =
    List.init nrows (fun _ ->
        let coeffs =
          Array.init nvars (fun _ -> Prob.Rng.float_range rng ~lo:0.1 ~hi:2.)
        in
        c_ coeffs le (Prob.Rng.float_range rng ~lo:1. ~hi:5.))
  in
  let objective_vec () =
    Array.init nvars (fun _ -> Prob.Rng.float_range rng ~lo:0.1 ~hi:1.)
  in
  let instances =
    List.init systems (fun _ ->
        let constrs = fresh_system () in
        (constrs, objective_vec ()))
  in
  let cold_pivots =
    List.fold_left
      (fun acc (constrs, c) ->
        let solver = Linprog.Solver.create ~nvars ~constrs in
        ignore (expect_optimal (solve_on solver c));
        acc + Linprog.Solver.pivots solver)
      0 instances
  in
  let solver =
    Linprog.Solver.create ~nvars ~constrs:(fst (List.hd instances))
  in
  List.iteri
    (fun i (constrs, c) ->
      Linprog.Solver.rebuild solver ~constrs;
      let warm = objective (expect_optimal (solve_on solver c)) in
      match brute_force ~nvars c constrs with
      | Some best when abs_float (warm -. best) <= 1e-7 *. (1. +. abs_float best)
        ->
        ()
      | Some best ->
        Alcotest.failf "system %d: oracle %.12g vs warm %.12g" i best warm
      | None -> Alcotest.failf "system %d: oracle found no vertex" i)
    instances;
  let warm_pivots = Linprog.Solver.pivots solver in
  Alcotest.(check bool)
    (Printf.sprintf "warm sweep pivots (%d) within fresh-instance budget (%d)"
       warm_pivots cold_pivots)
    true
    (warm_pivots <= cold_pivots)

(* ------------------------------------------------------------------ *)
(* Flat-kernel zero-allocation API: reoptimize_into                    *)
(* ------------------------------------------------------------------ *)

(* A cold solve against the oracle, across all three outcome classes
   (objective lands in x.(nvars)). *)
let prop_reoptimize_into_matches_oracle_mixed =
  QCheck.Test.make ~count:500
    ~name:"Solver.reoptimize_into = vertex enumeration (mixed Le/Ge)"
    lp_mixed_gen (fun ((c1, c2), rows) ->
      let c = [| c1; c2 |] in
      matches_oracle rows c (solve_max c (mixed_constrs rows)))

(* Bytes [f] charges to [linprog.alloc_bytes] with resource tracking
   on — the production accounting path, window by window. *)
let lp_alloc_bytes f =
  let counter = Telemetry.Metrics.counter "linprog.alloc_bytes" in
  Telemetry.Resource.with_enabled true @@ fun () ->
  let before = Telemetry.Metrics.value counter in
  f ();
  Telemetry.Metrics.value counter - before

(* The headline property of the flat kernel: a warm [reoptimize_into]
   allocates zero words — tableau, scratch, pricing, telemetry and the
   solution hand-off all live in preallocated buffers. The accounting
   is exact, so the budget is 0 bytes across the whole sweep: a single
   heap block anywhere on the warm path of any solve fails it (the
   historical nested-array engine allocated ~59 B/solve). A first pass
   settles the basis and faults in every code path; the second is
   measured. Every solve must be optimal. *)
let check_warm_sweep_zero_alloc ~nvars ~constrs objectives =
  let solver = Linprog.Solver.create ~nvars ~constrs in
  let x = Array.make (nvars + 1) 0. in
  let sweep () =
    Array.iter
      (fun c ->
        match Linprog.Solver.reoptimize_into solver ~c ~x with
        | Linprog.Solver.Optimal -> ()
        | Linprog.Solver.Unbounded | Linprog.Solver.Infeasible ->
          Alcotest.fail "warm sweep: LP not optimal")
      objectives
  in
  sweep ();
  Alcotest.(check int)
    (Printf.sprintf "bytes allocated across %d warm solves"
       (Array.length objectives))
    0 (lp_alloc_bytes sweep)

let test_reoptimize_into_zero_alloc () =
  let nvars = 5 and nrows = 7 and n = 64 in
  let rng = Prob.Rng.create ~seed:99 in
  let constrs =
    List.init nrows (fun _ ->
        let coeffs =
          Array.init nvars (fun _ -> Prob.Rng.float_range rng ~lo:0.1 ~hi:2.)
        in
        c_ coeffs le (Prob.Rng.float_range rng ~lo:1. ~hi:5.))
  in
  check_warm_sweep_zero_alloc ~nvars ~constrs
    (Array.init n (fun _ ->
         Array.init nvars (fun _ -> Prob.Rng.float_range rng ~lo:0.1 ~hi:1.)))

(* The same budget on the production LP: the TDBC inner-bound system of
   the paper's Fig. 4 channel at P = 10 dB, swept over 129 weightings
   of (Ra, Rb). *)
let test_reoptimize_into_zero_alloc_production () =
  let bound =
    Bidir.Gaussian.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner
      (Bidir.Gaussian.scenario ~power_db:10. ~gains:Channel.Gains.paper_fig4)
  in
  let nvars, constrs = Bidir.Rate_region.lp_constraints bound in
  let n = 129 in
  check_warm_sweep_zero_alloc ~nvars ~constrs
    (Array.init n (fun i ->
         let w = float_of_int i /. float_of_int (n - 1) in
         let c = Array.make nvars 0. in
         c.(0) <- w;
         c.(1) <- 1. -. w;
         c))

(* [linprog.alloc_bytes] is a gated budget, so a fixed LP sequence must
   charge the same bytes wherever minor collections fall. On a small
   minor heap, replay one create/solve/rebuild sequence after a minor
   collection plus every amount of garbage (in 8-word blocks) up to the
   heap's size, so that across the replays a collection lands at every
   allocation inside the sequence's accounted entry points. *)
let test_alloc_bytes_independent_of_gc_phase () =
  let rows scale =
    [ c_ [| 1.; 1.; 1. |] le (4. *. scale);
      c_ [| 1.; 3.; 0. |] le (6. *. scale);
      c_ [| 2.; 0.; 1. |] ge 1.;
    ]
  in
  let c = [| 1.; 2.; 1. |] and x = Array.make 4 0. in
  let sequence () =
    let s = Linprog.Solver.create ~nvars:3 ~constrs:(rows 1.) in
    for i = 1 to 4 do
      ignore (Linprog.Solver.reoptimize_into s ~c ~x);
      Linprog.Solver.rebuild s ~constrs:(rows (1. +. float_of_int i))
    done
  in
  let replay ~blocks =
    Gc.minor ();
    for _ = 1 to blocks do
      ignore (Sys.opaque_identity (Array.make 7 0))
    done;
    lp_alloc_bytes sequence
  in
  let heap_words = 8192 in
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = heap_words };
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  let reference = replay ~blocks:0 in
  Alcotest.(check bool) "the sequence allocates" true (reference > 0);
  for blocks = 1 to heap_words / 8 do
    Alcotest.(check int)
      (Printf.sprintf "bytes after %d garbage blocks" blocks)
      reference (replay ~blocks)
  done

(* [Solver.pivots] is the instance's own share of [linprog.pivots]:
   equal to the counter's delta when it is the only solver running, and
   blind to solves on any other instance. *)
let test_solver_pivots_own_count () =
  let counter = Telemetry.Metrics.counter "linprog.pivots" in
  let constrs = [ c_ [| 1.; 1. |] le 4.; c_ [| 1.; 3. |] le 6. ] in
  let before = Telemetry.Metrics.value counter in
  let a = Linprog.Solver.create ~nvars:2 ~constrs in
  Alcotest.(check int) "nothing recorded yet" 0 (Linprog.Solver.pivots a);
  ignore (solve_on a [| 1.; 2. |]);
  ignore (solve_on a [| 3.; 1. |]);
  let own = Linprog.Solver.pivots a in
  Alcotest.(check bool) "pivoted" true (own > 0);
  Alcotest.(check int) "= counter delta" own
    (Telemetry.Metrics.value counter - before);
  let b = Linprog.Solver.create ~nvars:2 ~constrs in
  ignore (solve_on b [| 1.; 2. |]);
  Alcotest.(check bool) "other instance pivoted" true
    (Linprog.Solver.pivots b > 0);
  Alcotest.(check int) "unchanged by other instance" own
    (Linprog.Solver.pivots a)

(* ------------------------------------------------------------------ *)
(* Warm solver vs the vertex-enumeration oracle on production LPs      *)
(* ------------------------------------------------------------------ *)

(* Random Gaussian bound systems in the exact shape
   [Rate_region.lp_constraints] hands the warm solver: Ra, Rb and one
   duration per phase (2-4 phases), the duration simplex as the single
   Eq row, and one Le row per bound term. Degenerate channels are drawn
   on purpose: a zero gain collapses terms to Ra <= 0, equal gains make
   cuts coincide, and every objective sweep includes the weights
   parallel to the region's faces ((1,1) along the sum-rate face,
   (1,0) and (0,1) along the single-user ones). *)
let gaussian_lp_gen =
  let open QCheck.Gen in
  let* shared = float_range 0.01 10. in
  let gain =
    frequency [ (1, return 0.); (1, return shared); (3, float_range 0.01 10.) ]
  in
  let* g_ab = gain and* g_ar = gain and* g_br = gain in
  let* power_db = float_range (-10.) 30. in
  let* protocol = oneofl Bidir.Protocol.all in
  let* kind = oneofl [ Bidir.Bound.Inner; Bidir.Bound.Outer ] in
  let+ weights =
    list_size (int_range 0 4) (pair (float_range 0. 1.) (float_range 0. 1.))
  in
  let scenario =
    Bidir.Gaussian.scenario ~power_db
      ~gains:(Channel.Gains.make ~g_ab ~g_ar ~g_br)
  in
  ( Bidir.Gaussian.bounds protocol kind scenario,
    [ (1., 1.); (1., 0.); (0., 1.) ] @ weights )

let gaussian_lp_arb =
  QCheck.make gaussian_lp_gen ~print:(fun ((b : Bidir.Bound.t), ws) ->
      Format.asprintf "%a@.weights %s" Bidir.Bound.pp b
        (String.concat " "
           (List.map (fun (wa, wb) -> Printf.sprintf "(%g,%g)" wa wb) ws)))

let prop_reoptimize_into_matches_oracle =
  QCheck.Test.make ~count:200
    ~name:"Gaussian-bound LPs: warm reoptimize_into = vertex enumeration"
    gaussian_lp_arb (fun (b, weights) ->
      let nvars, constrs = Bidir.Rate_region.lp_constraints b in
      let solver = Linprog.Solver.create ~nvars ~constrs in
      let x = Array.make (nvars + 1) 0. in
      List.for_all
        (fun (wa, wb) ->
          let c = Array.make nvars 0. in
          c.(0) <- wa;
          c.(1) <- wb;
          match
            ( Linprog.Solver.reoptimize_into solver ~c ~x,
              brute_force ~nvars c constrs )
          with
          | Linprog.Solver.Optimal, Some best ->
            abs_float (x.(nvars) -. best) <= 1e-7 *. (1. +. abs_float best)
          | _ -> false)
        weights)

(* The rate-region layer keeps one warm solver per LP shape and domain
   and reloads it unless it already holds the very same bound object.
   One domain interleaves [max_sum_rate] and [achievable] over systems
   of one shape: A, A again as the same object (no reload), B, A, a
   fresh copy of A, A with one coefficient moved one ulp, A again, and
   A with a 0. phase coefficient written as -0. (each a reload). Every
   answer must match the vertex-enumeration oracle, and a reload shows
   as basis refactorisation work on the weighted solve. *)
let test_rate_region_slot_reloads () =
  let bounds power_db =
    Bidir.Gaussian.bounds Bidir.Protocol.Hbc Bidir.Bound.Inner
      (Bidir.Gaussian.scenario ~power_db ~gains:Channel.Gains.paper_fig4)
  in
  let a = bounds 10. and b = bounds 3. in
  let map_first f (sys : Bidir.Bound.t) =
    (* [f] rewrites the first per-phase coefficient it accepts *)
    let found = ref false in
    let terms =
      List.map
        (fun (t : Bidir.Bound.term) ->
          let per_phase =
            Array.map
              (fun c ->
                match if !found then None else f c with
                | Some c' ->
                  found := true;
                  c'
                | None -> c)
              t.Bidir.Bound.per_phase
          in
          { t with Bidir.Bound.per_phase })
        sys.Bidir.Bound.terms
    in
    Alcotest.(check bool) "coefficient rewritten" true !found;
    { sys with Bidir.Bound.terms }
  in
  let ulp = map_first (fun c -> if c > 0. then Some (Float.succ c) else None) a
  and neg_zero =
    map_first
      (fun c ->
        if Int64.equal (Int64.bits_of_float c) 0L then Some (-0.) else None)
      a
  in
  let refactor = Telemetry.Metrics.counter "linprog.refactor_eliminations" in
  let check_system (name, sys, reload) =
    let nvars, constrs = Bidir.Rate_region.lp_constraints sys in
    let c = Array.make nvars 0. in
    c.(0) <- 1. +. 1e-7;
    c.(1) <- 1.;
    let before = Telemetry.Metrics.value refactor in
    let r = Bidir.Rate_region.max_sum_rate sys in
    Option.iter
      (fun reload ->
        Alcotest.(check bool) (name ^ ": reloaded") reload
          (Telemetry.Metrics.value refactor > before))
      reload;
    (match brute_force ~nvars c constrs with
    | Some best ->
      check_float ~eps:1e-7 (name ^ ": sum rate")
        best ((c.(0) *. r.Bidir.Rate_region.ra) +. r.Bidir.Rate_region.rb)
    | None -> Alcotest.failf "%s: oracle found no vertex" name);
    (* probes inside and outside the region along its diagonal *)
    let l = sys.Bidir.Bound.num_phases in
    List.iter
      (fun scale ->
        let ra = scale *. r.Bidir.Rate_region.ra
        and rb = scale *. r.Bidir.Rate_region.rb in
        let rows =
          c_ (Array.make l 1.) eq 1.
          :: List.map
               (fun (t : Bidir.Bound.term) ->
                 c_ t.Bidir.Bound.per_phase ge
                   ((t.Bidir.Bound.ca *. ra) +. (t.Bidir.Bound.cb *. rb)))
               sys.Bidir.Bound.terms
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: achievable at scale %g" name scale)
          (brute_force ~nvars:l (Array.make l 0.) rows <> None)
          (Bidir.Rate_region.achievable sys ~ra ~rb))
      [ 0.9; 1.05 ]
  in
  (* neither call fans out, so every solve runs on this domain's slots;
     clearing first makes A's load a fresh create *)
  Engine.Memo.clear_all ();
  List.iter check_system
    [ ("A", a, None);
      ("A, same object", a, Some false);
      ("B", b, Some true);
      ("A again", a, Some true);
      ("fresh copy of A", bounds 10., Some true);
      ("A moved one ulp", ulp, Some true);
      ("A after the ulp", a, Some true);
      ("A with -0.", neg_zero, Some true);
    ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_simplex_matches_brute_force;
      prop_solution_is_feasible;
      prop_duality_bound;
      prop_feasible_agrees_with_maximize;
      prop_duplicate_rows_invariant;
      prop_scaled_rows_invariant;
      prop_solver_objective_sequence;
      prop_solver_rebuild_matches_oracle;
      prop_reoptimize_into_matches_oracle_mixed;
      prop_reoptimize_into_matches_oracle;
    ]

let suites =
  [ ( "linprog.simplex",
      [ Alcotest.test_case "basic 2d" `Quick test_basic_2d;
        Alcotest.test_case "equality" `Quick test_equality_constraint;
        Alcotest.test_case "ge constraint" `Quick test_ge_constraint;
        Alcotest.test_case "unbounded" `Quick test_unbounded;
        Alcotest.test_case "infeasible" `Quick test_infeasible;
        Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
        Alcotest.test_case "degenerate vertex" `Quick test_degenerate;
        Alcotest.test_case "redundant equalities" `Quick test_redundant_equalities;
        Alcotest.test_case "zero objective" `Quick test_zero_objective;
        Alcotest.test_case "feasibility probe" `Quick test_feasible;
        Alcotest.test_case "klee-minty 3" `Quick test_klee_minty_3;
        Alcotest.test_case "phase-duration LP shape" `Quick test_phase_duration_shape;
      ] );
    ( "linprog.solver",
      [ Alcotest.test_case "120-system basis-carry stress" `Quick
          test_solver_stress_basis_carry;
        Alcotest.test_case "warm reoptimize_into allocates zero words" `Quick
          test_reoptimize_into_zero_alloc;
        Alcotest.test_case "warm production TDBC sweep allocates 0 B" `Quick
          test_reoptimize_into_zero_alloc_production;
        Alcotest.test_case "alloc_bytes independent of GC phase" `Quick
          test_alloc_bytes_independent_of_gc_phase;
        Alcotest.test_case "rate-region solver slot reloads when it should"
          `Quick test_rate_region_slot_reloads;
        Alcotest.test_case "pivots counts only its own solves" `Quick
          test_solver_pivots_own_count;
      ] );
    ("linprog.properties", qcheck_cases);
  ]
