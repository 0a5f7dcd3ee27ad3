#!/usr/bin/env bash
# Tier-1 verification: configure, build (the src/ library compiles with
# -Wall -Wextra; any compiler warning fails the check), and run the full
# test suite. The build/test sequence is the same one CI and ROADMAP.md
# use:
#
#   cmake -B build -S . && cmake --build build -j && \
#     cd build && ctest --output-on-failure -j
#
# Run from the repository root: tools/check.sh
#
# The default tier also enforces a wall-clock budget (RB_SMOKE_BUDGET_S,
# default 300s) on the test run: the smoke suite is the edit-compile-test
# loop, and a runaway test that balloons it should fail loudly, not be
# quietly absorbed.
#
# tools/check.sh --conformance runs only the sim-vs-execution conformance
# and golden-artifact suite (ctest -L conformance) in the default build
# tree.
#
# tools/check.sh --server runs only the serving front door suite (ctest
# -L server): framing, admission queue, rate limiter, wire protocol,
# drain → WAL resume, and the socket end-to-end tests.
#
# tools/check.sh --sanitize rebuilds into build-asan/ with
# -fsanitize=address,undefined and runs the suite under both sanitizers
# (slower; catches the memory and UB bugs the plain build cannot). This
# includes the seeded experiment-IR fuzz suite (SpecIrFuzz), so malformed
# spec rejection paths are exercised under ASan/UBSan every run.
#
# tools/check.sh --tsan rebuilds into build-tsan/ with -fsanitize=thread
# and runs the concurrency-relevant subset (thread pool, parallel plan
# evaluation, planners, service, straggler handling, metrics registry,
# plus the plan-compiler and mixed-scheduler service suites) under
# ThreadSanitizer via the tsan ctest label (-DRB_TSAN_SUITE=ON).
#
# tools/check.sh --chaos runs the front-door durability tier in the
# default build tree through ctest -R: the WAL torn-write recovery matrix,
# the drain → WAL resume identity tests, the idempotency suites, and
# BenchBaseline.ChaosServer — bench/chaos_server across seeds 11–13, a
# seeded kill/restart schedule whose final report must be byte-identical
# to the uninterrupted run, with its JSON compared byte for byte against
# the checked-in BENCH_chaos.json (the default tier runs that entry too).
#
# tools/check.sh --perf runs the control-plane/DES-kernel throughput
# gate in the default build tree: the EventQueue and RngIdentity suites and
# the fleet replay's heap-allocation budget (AllocationBudget: at most 200
# allocations per uniform SHA job), then bench/service_throughput --fleet 10000 (a 10k-job sha trace plus
# a 2k-experiment mixed-scheduler trace) under a wall-clock budget
# (RB_PERF_BUDGET_S, default 3s: about 5x the slowest of five default-build
# runs, 0.45-0.55s on a 4-vCPU host), plus the kernel microbench allocation
# check and random-engine gate (bench/micro_simulator --json). Any
# EventCallback heap fallback or budget overrun fails the tier, as does
# the in-tree MT19937-64 losing its margin over an in-process
# std::mt19937_64: a fresh stream plus 8 normals must be at least 2x
# faster, and long-stream words/s no more than 10% slower.
#
# tools/check.sh --spot runs the spot-market survival tier in the default
# build tree through ctest -R: the Spot* suites (market mechanics, eager
# checkpoints, fallback, risk-aware planning, billing) and
# BenchBaseline.SpotSweep, which runs bench/spot_sweep --json — whose hard
# self-checks (inert-market row byte-equal to on-demand; moderate
# volatility >= 25% cheaper without giving up the deadline) must pass —
# and compares its JSON byte for byte with the checked-in BENCH_spot.json.
#
# tools/check.sh --all runs the eight tiers back to back (default,
# --conformance, --server, --sanitize, --tsan, --chaos, --perf, --spot)
# and prints a one-line pass/fail verdict per tier.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--all" ]]; then
  declare -a tiers=(default conformance server sanitize tsan chaos perf spot)
  declare -a verdicts=()
  status=0
  for tier in "${tiers[@]}"; do
    args=()
    [[ "$tier" != default ]] && args=("--$tier")
    if "$0" "${args[@]}"; then
      verdicts+=("PASS  $tier")
    else
      verdicts+=("FAIL  $tier")
      status=1
    fi
  done
  echo
  echo "=== tools/check.sh --all summary ==="
  for verdict in "${verdicts[@]}"; do
    echo "$verdict"
  done
  exit "$status"
fi

build_dir=build
budget_s=""
perf_bench=""
cmake_args=()
ctest_args=()
if [[ "${1:-}" == "--sanitize" ]]; then
  build_dir=build-asan
  cmake_args+=(
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
    "-DCMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
    "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=address,undefined"
  )
elif [[ "${1:-}" == "--tsan" ]]; then
  build_dir=build-tsan
  cmake_args+=(
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
    -DRB_TSAN_SUITE=ON
    "-DCMAKE_CXX_FLAGS=-fsanitize=thread -fno-omit-frame-pointer"
    "-DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread"
  )
  ctest_args+=(-L tsan)
elif [[ "${1:-}" == "--conformance" ]]; then
  ctest_args+=(-L conformance)
elif [[ "${1:-}" == "--server" ]]; then
  ctest_args+=(-L server)
elif [[ "${1:-}" == "--chaos" ]]; then
  ctest_args+=(-R "Wal|Idempotency|ServerFault|SnapshotRestore|SurviveRestore|DrainPersists|ChaosServer")
elif [[ "${1:-}" == "--perf" ]]; then
  ctest_args+=(-R "EventQueue|RngIdentity|AllocationBudget")
  perf_bench=1
elif [[ "${1:-}" == "--spot" ]]; then
  ctest_args+=(-R "Spot")
elif [[ $# -eq 0 ]]; then
  budget_s="${RB_SMOKE_BUDGET_S:-300}"
else
  echo "usage: tools/check.sh [--conformance|--server|--sanitize|--tsan|--chaos|--perf|--spot|--all]" >&2
  exit 2
fi

log="$(mktemp)"
trap 'rm -f "$log"' EXIT

cmake -B "$build_dir" -S . "${cmake_args[@]}"
cmake --build "$build_dir" -j 2>&1 | tee "$log"
if grep -E "warning:" "$log" >/dev/null; then
  echo "error: compiler warnings detected (see above)" >&2
  exit 1
fi

cd "$build_dir"
test_start=$SECONDS
ctest --output-on-failure "${ctest_args[@]}" -j
if [[ -n "$perf_bench" ]]; then
  echo "=== bench/micro_simulator --json: kernel events/s, allocation check, random-engine gate ==="
  ./bench/micro_simulator --json "$(mktemp)"
  echo "=== bench/service_throughput --fleet 10000: control-plane budget gate ==="
  ./bench/service_throughput --fleet 10000 --budget-s "${RB_PERF_BUDGET_S:-3}"
fi
test_elapsed=$((SECONDS - test_start))
if [[ -n "$budget_s" ]]; then
  echo "test wall clock: ${test_elapsed}s (budget ${budget_s}s)"
  if (( test_elapsed > budget_s )); then
    echo "error: test suite exceeded its ${budget_s}s wall-clock budget" >&2
    exit 1
  fi
fi
