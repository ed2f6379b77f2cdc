#!/usr/bin/env sh
# Regenerate the golden-stats regression corpus (tests/golden/*.json)
# and the closed-loop figure references (bench/baselines/fig8_*.txt,
# bench/baselines/fig9_*.txt).
#
# Usage: tools/regen_golden.sh [build-dir]
#
# Runs the golden_* tests with GOLDEN_REGEN=1, which makes each case
# rewrite its reference file instead of comparing against it. When the
# build also holds the fig8_fullsystem and fig9_mem_exploration bench
# binaries, their output replaces the two figure references that CI's
# "Closed-loop figure identity" step diffs against. Review the
# resulting diff under tests/golden/ and bench/baselines/ like any
# other code change: fig8's host_time column and host-saving line are
# wall-clock measurements and change on every run.
set -eu

BUILD_DIR="${1:-build}"
TESTS_BIN="$BUILD_DIR/tests/dramctrl_tests"
ROOT="$(dirname "$0")/.."

if [ ! -x "$TESTS_BIN" ]; then
    echo "error: $TESTS_BIN not found; build first" \
         "(cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
    exit 1
fi

GOLDEN_REGEN=1 "$TESTS_BIN" --gtest_filter='*golden_*' >/dev/null
echo "golden corpus regenerated under tests/golden/"

for fig in fig8_fullsystem fig9_mem_exploration; do
    if [ -x "$BUILD_DIR/bench/$fig" ]; then
        "$BUILD_DIR/bench/$fig" > "$ROOT/bench/baselines/$fig.txt"
        echo "bench/baselines/$fig.txt regenerated"
    fi
done
git -C "$ROOT" status --short tests/golden/ bench/baselines/ \
    2>/dev/null || true
