#!/usr/bin/env sh
# Regenerate the committed trace-pipeline baseline,
# bench/baselines/BENCH_trace.json.
#
# Usage: tools/regen_perf_baseline.sh [build-dir]
#
# Runs trace_perf at 50M records (needs ~800 MB of scratch space).
# CI diffs every run against this file (informational — runner timing
# is noisy), so refresh it on the machine class you care about after
# any deliberate change to the trace pipeline, and review the diff like
# any other code change. Every other speed number comes from perfbench
# (perfbench/README.md).
set -eu

BUILD_DIR="${1:-build}"
REPO_DIR="$(cd "$(dirname "$0")/.." && pwd)"
OUT_DIR="$REPO_DIR/bench/baselines"

if [ ! -x "$BUILD_DIR/bench/trace_perf" ]; then
    echo "error: $BUILD_DIR/bench/trace_perf not found; build first" \
         "(cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release" \
         "&& cmake --build $BUILD_DIR -j --target trace_perf)" >&2
    exit 1
fi

mkdir -p "$OUT_DIR"
"$BUILD_DIR/bench/trace_perf" --records 50000000 --sim-records 500000 \
    --json "$OUT_DIR/BENCH_trace.json"
echo "trace baseline regenerated under bench/baselines/"
git -C "$REPO_DIR" status --short bench/baselines/ 2>/dev/null || true
