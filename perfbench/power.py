#!/usr/bin/env python3
"""Shows that the benchmark's bounds can see a regression.

    python3 perfbench/power.py [--workloads grid,churn-1e4] [--repeats 4]
                               [--slowdown 0.5]

Run from the repository root. For each workload it makes three sets of
--repeats runs of perfbench/run.py on the same seeds, interleaved: A1
and A2 on the unchanged code, and B with --inject-slowdown, which makes
the benchmark's own RunSink busy-wait that share of every run's wall
time. It then applies the regression rule to every end-to-end metric,
with the bounds from BENCHMARK.json: a metric regresses when the second
set's median is worse than the first's by more than its bound. The A1/A2
pair must stay quiet and the A1/B pair must trip on runs_per_s.
Exits 1 when either expectation fails.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, slowdown):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if slowdown:
        argv += ["--inject-slowdown", str(slowdown)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if proc.returncode or not result["correct"]:
        sys.exit(f"power: run failed: {' '.join(argv)}\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def regressions(first, second, spec):
    """Metrics whose second median is worse than the first by > bound."""
    tripped = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        a = statistics.median(r[name] for r in first)
        b = statistics.median(r[name] for r in second)
        change = (b - a) / a
        worse = change < -bound if metric["better"] == "higher" else change > bound
        tripped[name] = (change, worse)
    return tripped


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="grid,churn-1e4")
    parser.add_argument("--repeats", type=int, default=4)
    parser.add_argument("--slowdown", type=float, default=0.5)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    ok = True
    for workload in args.workloads.split(","):
        sets = {"A1": [], "A2": [], "B": []}
        for i in range(args.repeats):
            seed = 1000 + i
            # Rotate the order so drift does not favour one set.
            order = [("A1", 0.0), ("A2", 0.0), ("B", args.slowdown)]
            for name, slowdown in order[i % 3:] + order[:i % 3]:
                sets[name].append(run_once(workload, seed, spec["run_seconds"], slowdown))
        for pair, expect in ((("A1", "A2"), False), (("A1", "B"), True)):
            tripped = regressions(sets[pair[0]], sets[pair[1]], spec)
            cells = ", ".join(f"{n} {c:+.1%}{' TRIP' if w else ''}"
                              for n, (c, w) in tripped.items())
            print(f"{workload} {pair[0]}/{pair[1]}: {cells}")
            if expect and not tripped["runs_per_s"][1]:
                print(f"  expected runs_per_s to trip on {workload}")
                ok = False
            if not expect and any(w for _, w in tripped.values()):
                print(f"  expected no metric to trip on the A/A pair")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
