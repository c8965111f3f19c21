#!/usr/bin/env python3
"""Build the program from source and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload: the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the host, the inputs and every metric's sample count.
`--workload all` runs each workload in its own process, prints every
end-to-end metric with its unit and sample count, and exits non-zero
if any correctness gate failed. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["serve_hot", "campaign_ergodic", "simulate"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
CLI = os.path.join("_build", "default", "bin", "bidir_cli.exe")
RUN_TIMEOUT_S = 170


def build():
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "./perfbench/bench.exe", "./bin/bidir_cli.exe"]
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env).returncode == 0
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return False


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(workload, seed, seconds, trace, capture):
    cmd = [BENCH, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--cli", CLI,
           "--commit", commit()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # SIGTERM lets the benchmark reap its own children first
        proc.terminate()
        try:
            proc.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 124, ""
    return proc.returncode, (out.decode() if capture else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    if a.workload != "all":
        code, _ = run_one(a.workload, a.seed, a.seconds, a.trace, capture=False)
        return code
    worst = 0
    for w in WORKLOADS:
        code, out = run_one(w, a.seed, a.seconds, a.trace, capture=True)
        lines = out.strip().splitlines()
        if len(lines) < 2:
            print(f"{w}: no result (exit {code})")
            worst = worst or code or 1
            continue
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        print(f"{w}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_rate={report['fail_rate']:.6g}")
        for m in report["metrics"]:
            print(f"  {m['name']:<40} {m['value']:>14.6g} {m['unit']:<8} n={m['samples']}")
        if code != 0 or not result["correct"]:
            worst = worst or code or 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
