#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --runs 10 [--workload W ...] [--first-seed 1]

Runs each workload once per seed (seeds first-seed, first-seed+1, ...),
then prints, per metric, the median and the interquartile range over
the median, with quartiles as `statistics.quantiles(values, n=4)` gives
them, next to a third of the metric's bound from BENCHMARK.json.
Exits non-zero if a run fails or any metric's spread exceeds its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="a workload run.py knows; default: those of BENCHMARK.json")
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = False
    for w in a.workload or names:
        values = {}
        steal = []
        for k in range(a.runs):
            seed = a.first_seed + k
            out = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
                return 1
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            steal.append(json.loads(lines[-2])["report"]["host"]["steal_share"])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: incorrect result")
                bad = True
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w} ({a.runs} runs; host steal " + " ".join(f"{x:.0%}" for x in steal) + ")")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            limit = bounds[name]
            flag = "" if spread <= limit / 3 else (" > bound/3" if spread <= limit else " > BOUND")
            if spread > limit:
                bad = True
            print(f"  {name:<14} median {med:<12.6g} spread {spread:7.4f}  bound/3 {limit / 3:.4f}{flag}")
            print("    " + " ".join(f"{v:.4g}" for v in vs))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
