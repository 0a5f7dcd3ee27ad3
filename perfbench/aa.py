#!/usr/bin/env python3
"""A/A runner: runs one build of the benchmark repeatedly and reports spread.

    python3 perfbench/aa.py --runs 10 [--workloads a,b] [--seconds S]
                            [--first-seed 1] [--trace]

Each round runs every workload once, rotating which workload goes first,
with the round's seed (first-seed + round). For every end-to-end metric it
prints the median, the quartiles (Python's statistics.quantiles, n=4), the
spread (interquartile distance over the median), the metric's bound and the
spread as a share of that bound, and whether the medians of the two halves
of the rounds (even versus odd) agree within the bound. A metric is steady
when its spread is within its bound and its halves agree; the same test
holds for every metric. --trace adds one traced run per workload at the end
and prints its per-layer table, span table and tracing overhead. Exits 1
when a metric is not steady or any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return done.returncode, result, lines[:-1]


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse(first, second, better):
    """Relative amount by which `second` is worse than `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    failures = []
    for r in range(args.runs):
        seed = args.first_seed + r
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            code, result, _ = run_once(w, seed, args.seconds, False)
            ok = code == 0 and result is not None and result["correct"] and result["failed"] == 0
            if not ok:
                failures.append("%s seed %d: exit %d, result %s" % (w, seed, code, result))
                continue
            for m in metrics:
                values[w][m["name"]].append(result["metrics"][m["name"]]["value"])
            print("round %d seed %d %s done" % (r, seed, w), file=sys.stderr)

    verdict = not failures
    for w in workloads:
        print("\n== %s (%d runs)" % (w, len(values[w][metrics[0]["name"]])))
        print("%-28s %12s %12s %12s %8s %6s %6s %12s %12s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "share", "half A", "half B",
               "agree"))
        for m in metrics:
            v = values[w][m["name"]]
            if len(v) < 4:
                continue
            med, q1, q3, sp = spread(v)
            half_a = statistics.median(v[0::2])
            half_b = statistics.median(v[1::2])
            agree = worse(half_a, half_b, m["better"]) <= m["bound"]
            steady = sp <= m["bound"]
            verdict = verdict and agree and steady
            print("%-28s %12.6g %12.6g %12.6g %8.4f %6.3f %6.2f %12.6g %12.6g %6s%s" %
                  (m["name"], med, q1, q3, sp, m["bound"], sp / m["bound"], half_a, half_b,
                   "yes" if agree else "NO", "" if steady else "  SPREAD > BOUND"))

    if args.trace:
        # The last round's seed, so each workload's untraced run of that
        # seed is on record for the overhead table.
        for w in workloads:
            code, result, lines = run_once(w, args.first_seed + args.runs - 1, args.seconds, True)
            print("\n== traced %s (exit %d)" % (w, code))
            print("\n".join(line for line in lines
                            if line.startswith(("metric ", "  ", "tracing overhead", "span"))))
            if code != 0 or result is None:
                failures.append("traced %s: exit %d" % (w, code))

    for f in failures:
        print("FAILED: " + f)
    print("\nverdict: %s" % ("steady" if verdict and not failures else "NOT steady"))
    return 0 if verdict and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
