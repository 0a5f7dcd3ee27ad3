#!/usr/bin/env bash
# Byte-exact bench baseline check: runs a bench with `--json <out>` and
# compares the JSON it writes against a checked-in BENCH_*.json. The bench
# exits non-zero when one of its own self-checks fails, which fails the
# check as well, as does any byte of drift in the output.
#
# Usage: bench_baseline.sh <bench-binary> <baseline-json> <out-json>
set -euo pipefail

bench="$1"
baseline="$2"
out="$3"

"$bench" --json "$out" > /dev/null
cmp "$baseline" "$out"
