#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fleet_uniform --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program and the benchmark program are
compiled with CMake into $CARGO_TARGET_DIR (default .bench_build); the first
run builds, later runs only relink what changed. The last line of stdout is
the JSON result; with --trace 1 the figures of the last untraced
run of the same workload and seed in this checkout are printed beside the
traced ones (the tracing overhead).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    tree = out / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (tree / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "-j", jobs, "--target", "rbbench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(step))
    return tree / "rbbench"


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_result(result, trace):
    """Returns a list of problems with the result line's shape."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    wanted = spec()["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        problems.append("metrics missing %s, unexpected %s" % (missing, extra))
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is not None and got.get("unit") != m["unit"]:
            problems.append("%s unit %s, expected %s" % (m["name"], got.get("unit"), m["unit"]))
    return problems


def untraced_record(out, workload, seed):
    return out / ("untraced-%s-%d.json" % (workload, seed))


def overhead_table(out, workload, seed, lines):
    """Untraced figures of the same workload and seed beside this traced run's."""
    saved = untraced_record(out, workload, seed)
    traced = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "traced":
            traced[parts[1]] = float(parts[2])
    print("\ntracing overhead, %s seed %d (untraced = last untraced run of that seed here):"
          % (workload, seed))
    if not saved.exists():
        print("  no untraced run of this seed on record; run it with --trace 0 first")
        return
    untraced = json.loads(saved.read_text())
    print("  %-28s %14s %14s %9s" % ("metric", "untraced", "traced", "diff"))
    for name, value in traced.items():
        base = untraced.get(name, {}).get("value")
        if base is None:
            continue
        diff = (value - base) / base * 100.0 if base else 0.0
        print("  %-28s %14.6g %14.6g %8.2f%%" % (name, base, value, diff))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    try:
        binary = build(out)
    except (RuntimeError, OSError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1

    work = out / ("work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        done = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    finally:
        if args.trace:
            spans = work / ("spans-%s.jsonl" % args.workload)
            if spans.exists():
                shutil.copy(spans, out / spans.name)
        shutil.rmtree(work, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(done.stdout[-4000:])
        sys.stderr.write("perfbench: no result line (exit %d)\n" % done.returncode)
        return 1
    problems = check_result(result, args.trace)
    for p in problems:
        sys.stderr.write("perfbench: %s\n" % p)

    print("\n".join(lines[:-1]))
    if args.trace:
        overhead_table(out, args.workload, args.seed, lines)
    elif done.returncode == 0 and not problems:
        untraced_record(out, args.workload, args.seed).write_text(json.dumps(result["metrics"]))
    print(json.dumps(result))
    return done.returncode if done.returncode != 0 else (1 if problems else 0)


if __name__ == "__main__":
    sys.exit(main())
