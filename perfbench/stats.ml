(* The tail percentile the benchmark reports, on top of
   Numerics.Stats.quantile (linear interpolation between closest
   ranks). *)

(* Samples that lie beyond percentile [pm] (per mille): the ones a
   nearest-rank cut at [pm] leaves above it. Integer arithmetic, so
   p99 of exactly 1000 samples leaves exactly 10. *)
let beyond ~n pm = n * (1000 - pm) / 1000

(* Candidate tail percentiles, highest first. p99 is the cap: a deeper
   tail needs tens of thousands of samples to be steady run to run. *)
let tail_candidates = [ 990; 900; 750; 500 ]

(* Samples a tail percentile must leave beyond it. *)
let min_beyond = 10

(* The highest candidate percentile with at least [min_beyond]
   samples beyond it, in per mille; [None] when even the median has
   fewer (a run with under 2 * min_beyond samples). *)
let tail_per_mille n =
  List.find_opt (fun pm -> beyond ~n pm >= min_beyond) tail_candidates

let label pm =
  if pm mod 10 = 0 then Printf.sprintf "p%d" (pm / 10)
  else Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)

(* Percentile [pm] (per mille) of [xs], and how many samples lie
   beyond it. *)
let tail ~pm xs =
  (Numerics.Stats.quantile xs (float_of_int pm /. 1000.), beyond ~n:(Array.length xs) pm)
