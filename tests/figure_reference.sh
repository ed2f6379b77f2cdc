#!/usr/bin/env sh
# Paper-accuracy figure references (`ctest -R figure_reference`).
#
# Runs every figure program that prints only simulated results (the
# paper's figures and the supplementary benches EXPERIMENTS.md cites)
# and compares its output with bench/baselines/<program>.txt, byte for
# byte. fig8_fullsystem also prints host time, so only its simulated
# columns are compared: every line but the host-time saving line, cut
# before the host_time column.
#
# Usage: tests/figure_reference.sh BENCH_DIR WORK_DIR [--regen]
#
# BENCH_DIR holds the built figure programs (build/bench).
#
# --regen rewrites the references instead of comparing; review the
# resulting diff under bench/baselines/ like any other change, and
# update the numbers EXPERIMENTS.md quotes from it. fig8's host_time
# column and host-saving line are wall-clock measurements and change
# on every regeneration.
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

# fig8_fullsystem: the simulated columns only.
simulated() {
    grep -v 'host-time saving' "$1" | cut -c1-54
}
"$BENCH/fig8_fullsystem" > "$WORK/fig8_fullsystem.txt"
if [ -n "$REGEN" ]; then
    cp "$WORK/fig8_fullsystem.txt" "$REF/fig8_fullsystem.txt"
else
    simulated "$REF/fig8_fullsystem.txt" > "$WORK/fig8_ref.sim"
    simulated "$WORK/fig8_fullsystem.txt" > "$WORK/fig8_run.sim"
    if ! cmp -s "$WORK/fig8_ref.sim" "$WORK/fig8_run.sim"; then
        echo "FAIL fig8_fullsystem: simulated columns differ from" \
            "bench/baselines/fig8_fullsystem.txt"
        diff "$WORK/fig8_ref.sim" "$WORK/fig8_run.sim" | head -20 || true
        status=1
    fi
fi

exit $status
