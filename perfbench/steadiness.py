#!/usr/bin/env python3
"""Steadiness report: runs the benchmark repeatedly on one build.

For every workload and metric it prints the median, the quartiles, the
interquartile range and (max - min) as shares of the median, and, for the
end-to-end metrics, the bound from BENCHMARK.json. With --sets 2 it also
compares the medians of two sets of runs of the same code. Runs use seeds
1, 2, ... and BENCHMARK.json's run_seconds. It fails if any run is
incorrect, if an exact count differs between runs, if an end-to-end
metric's interquartile range exceeds its bound, or if the second set's
median is worse than the first's by more than the bound.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --sets 2
    python3 perfbench/steadiness.py --runs 5 --workloads stream-q2-b8
    python3 perfbench/steadiness.py --runs 3 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Counts that must repeat exactly on every run.
EXACT = {
    "words_per_vector",
    "msgs_per_vector",
    "plan.ternary_per_vector",
    "schedule.rounds",
    "solver.iters",
}


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    scale = abs(med) if med else 1.0
    return med, q1, q3, (q3 - q1) / scale, (max(values) - min(values)) / scale


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1, help="sets of runs to compare")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")

    ok = True
    worst_wall = 0.0
    for w in workloads:
        sets = []
        for k in range(opts.sets):
            values = {}
            for i in range(opts.runs):
                seed = 1 + k * opts.runs + i
                result, wall = run_once(command, w, seed, seconds, opts.trace)
                worst_wall = max(worst_wall, wall)
                if not result["correct"] or result["failed"]:
                    print(f"{w} seed {seed}: incorrect run: {result}")
                    ok = False
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"  {w} set {k + 1} seed {seed}: {wall:.1f} s", file=sys.stderr)
            sets.append(values)

        print(f"\n{w}  ({opts.runs} runs x {opts.sets} sets, {seconds} s each)")
        print(f"  {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}  verdict")
        for name in sets[0]:
            allv = [v for s in sets for v in s[name]]
            med, q1, q3, iqr, rng = spread(allv)
            b = bounds.get(name)
            verdict = ""
            if name in EXACT:
                same = len(set(allv)) == 1
                verdict = "exact" if same else "EXACT COUNT DIFFERS"
                ok &= same
            elif b:
                limit = b["bound"]
                if iqr <= limit / 3:
                    verdict = "steady"
                elif iqr <= limit:
                    verdict = "within bound"
                else:
                    verdict = "TOO NOISY"
                    ok = False
            bound = f"{b['bound']:.2f}" if b else ""
            print(f"  {name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{iqr:>8.4f} {rng:>8.4f} {bound:>6}  {verdict}")
        if opts.sets >= 2:
            print("  set medians (first -> second; worse share vs bound):")
            for name, b in bounds.items():
                if name not in sets[0]:
                    continue
                m1 = statistics.median(sets[0][name])
                m2 = statistics.median(sets[1][name])
                worse = (m2 - m1) / abs(m1) if b["better"] == "lower" else (m1 - m2) / abs(m1)
                flag = "ok" if worse <= b["bound"] else "DRIFT"
                ok &= worse <= b["bound"]
                print(f"    {name:<32} {m1:>14.6g} -> {m2:<14.6g} {worse:>+8.4f} "
                      f"{b['bound']:.2f} {flag}")
    print(f"\nslowest run: {worst_wall:.1f} s wall")
    print("steadiness: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
