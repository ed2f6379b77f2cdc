#!/usr/bin/env sh
# Paper-accuracy figure references (`ctest -R figure_reference`).
#
# Runs every figure program that prints only simulated results (the
# paper's figures and the supplementary benches EXPERIMENTS.md cites)
# and compares its output with bench/baselines/<program>.txt, byte for
# byte. fig8_fullsystem is not among them: it prints host time, so CI
# diffs its simulated columns instead.
#
# Usage: tests/figure_reference.sh BENCH_DIR WORK_DIR [--regen]
#
# BENCH_DIR holds the built figure programs (build/bench).
#
# --regen rewrites the references instead of comparing; review the
# resulting diff under bench/baselines/ like any other change, and
# update the numbers EXPERIMENTS.md quotes from it.
set -eu

BENCH=$(cd "$1" && pwd)
WORK=$2
REGEN=${3:-}
REF=$(cd "$(dirname "$0")/../bench/baselines" && pwd)

rm -rf "$WORK"
mkdir -p "$WORK"
status=0

for fig in fig3_bw_open_read fig4_bw_open_mixed fig5_bw_closed_write \
    fig6_lat_linear_open fig7_lat_mixed_closed power_correlation \
    fig9_mem_exploration latency_load_curve ablation_addr_mapping \
    ablation_page_policy ablation_powerdown ablation_qos \
    ablation_queue_depth ablation_write_drain; do
    "$BENCH/$fig" > "$WORK/$fig.txt"
    if [ -n "$REGEN" ]; then
        cp "$WORK/$fig.txt" "$REF/$fig.txt"
    elif ! cmp -s "$WORK/$fig.txt" "$REF/$fig.txt"; then
        echo "FAIL $fig: output differs from bench/baselines/$fig.txt"
        diff "$REF/$fig.txt" "$WORK/$fig.txt" | head -20 || true
        status=1
    fi
done

exit $status
