#!/usr/bin/env sh
# Regenerate every reference that tier-1 diffs: the golden-stats
# corpus (tests/golden/*.json), the figure references
# (bench/baselines/*.txt) and the CLI references
# (tests/cli_reference/*.out).
#
# Usage: tools/regen_golden.sh [build-dir]
#
# Runs the golden_* tests with GOLDEN_REGEN=1, which makes each case
# rewrite its reference file instead of comparing against it; then
# tests/figure_reference.sh and tests/cli_reference.sh with --regen.
# Review the resulting diff under tests/golden/, bench/baselines/ and
# tests/cli_reference/ like any other code change: fig8's host_time
# column and host-saving line are wall-clock measurements and change on
# every run.
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

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
sh "$ROOT/tests/figure_reference.sh" "$BUILD_DIR/bench" "$WORK/fig" \
    --regen
echo "figure references regenerated under bench/baselines/"
sh "$ROOT/tests/cli_reference.sh" "$BUILD_DIR/tools" "$WORK/cli" --regen
echo "CLI references regenerated under tests/cli_reference/"

git -C "$ROOT" status --short tests/golden/ bench/baselines/ \
    tests/cli_reference/ 2>/dev/null || true
