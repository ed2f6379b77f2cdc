#!/usr/bin/env sh
# CLI reference outputs (`ctest -R cli_reference`).
#
# Runs the four tools (dramctrl_cli, sweep_cli, fuzz_cli, trace_cli)
# over a fixed set of invocations and compares what each one prints
# (stdout plus its exit status) with the reference under
# tests/cli_reference/. Checkpoint splits are also compared with the
# uninterrupted run they split: a restored --json run must print
# exactly what the run without the split prints. The --help cases also
# record stderr, with the tools' directory stripped from the program
# path.
#
# Usage: tests/cli_reference.sh TOOLS_DIR WORK_DIR [--regen]
#
# TOOLS_DIR holds the four built tools (build/tools).
#
# --regen rewrites the references instead of comparing; review the
# resulting diff under tests/cli_reference/ like any other change.
set -eu

TOOLS=$(cd "$1" && pwd)
CLI=$TOOLS/dramctrl_cli
WORK=$2
REGEN=${3:-}
HERE=$(cd "$(dirname "$0")" && pwd)
REF=$HERE/cli_reference

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"
# Relative paths only: some outputs echo the file names they were given.
cp "$HERE/traces/example.dtrc" "$HERE/traces/backpressure.txt" \
    "$HERE/../examples/ddr4.json" .
mkdir -p tests/repros
cp "$HERE/repros/injected_trcd_fault.json" \
    "$HERE/repros/clean_baseline.json" tests/repros/
status=0

# check NAME: compare NAME.out with its reference (or rewrite it).
check() {
    if [ -n "$REGEN" ]; then
        cp "$1.out" "$REF/$1.out"
    elif ! cmp -s "$1.out" "$REF/$1.out"; then
        echo "FAIL $1: output differs from tests/cli_reference/$1.out"
        diff "$REF/$1.out" "$1.out" | head -20 || true
        status=1
    fi
}

# tool TOOL NAME ARGS...: run TOOL, record stdout and the exit status.
tool() {
    prog=$1
    name=$2
    shift 2
    code=0
    "$TOOLS/$prog" "$@" > "$name.out" || code=$?
    echo "exit $code" >> "$name.out"
    check "$name"
}

# run NAME ARGS...: the same for dramctrl_cli.
run() {
    tool dramctrl_cli "$@"
}

# both TOOL NAME ARGS...: record stdout and stderr, with the program
# path reduced to the tool's name, and the exit status.
both() {
    prog=$1
    name=$2
    shift 2
    code=0
    "$TOOLS/$prog" "$@" > "$name.raw" 2>&1 || code=$?
    sed "s|$TOOLS/||g" "$name.raw" > "$name.out"
    echo "exit $code" >> "$name.out"
    check "$name"
}

# filesum NAME FILE: record FILE's checksum ("missing" when the run
# wrote no FILE) as NAME.out and compare it.
filesum() {
    if [ -e "$2" ]; then cksum < "$2"; else echo "missing $2"; fi \
        > "$1.out"
    check "$1"
}

# same A B: two outputs of this run must be byte-identical.
same() {
    if ! cmp -s "$1.out" "$2.out"; then
        echo "FAIL $1 differs from $2"
        status=1
    fi
}

run default
run dram_audit --pattern dram --audit
# Idle gaps of about 25 x tREFI: both models issue and log every
# refresh of the gaps, so their audits read the same clean count.
for model in event cycle; do
    run "idle_refresh_audit_$model" --preset ddr3_1333 --model "$model" \
        --pattern random --itt-ns 200000 --requests 20 --audit
    grep '^protocol audit:' "idle_refresh_audit_$model.out" \
        > "idle_refresh_audit_${model}_line.out"
done
same idle_refresh_audit_cycle_line idle_refresh_audit_event_line
run cycle_json --model cycle --json
# Power inputs from the command stream: on the same mostly idle
# closed-page traffic both models issue 2,000-odd ACT/PRE and 12 REF,
# and their prechargeAllTime differ only as their command streams do.
for model in event cycle; do
    run "power_inputs_$model" --preset ddr3_1333 --page closed \
        --pattern random --itt-ns 50 --requests 2000 --model "$model" --json
done
run trace_replay --pattern trace --trace-in example.dtrc
# An intent schedule under back pressure: each stall slips it once.
run trace_slip --pattern trace --trace-in backpressure.txt
run hmc_stack_16_json --preset hmc_stack_16 --json
run ch4_linear_audit --channels 4 --pattern linear --audit

# A multi-channel capture, its bytes, and its replay.
run ch4_capture --channels 4 --requests 4000 --trace-capture ch4.dtrc \
    --json
filesum ch4_capture_file ch4.dtrc
run ch4_replay --channels 4 --pattern trace --trace-in ch4.dtrc --json

# A capture cut by a checkpoint is written at the split: the merged
# multi-channel .dtrc, and a single-channel .txt.
run ch4_capture_ckpt --channels 4 --requests 4000 \
    --trace-capture ch4_ckpt.dtrc --ckpt-at 2000 --ckpt-out ch4_cap.ckpt
filesum ch4_capture_ckpt_file ch4_ckpt.dtrc
filesum ch4_capture_ckpt_ckpt ch4_cap.ckpt
run capture_txt_ckpt --requests 4000 --trace-capture cap_ckpt.txt \
    --ckpt-at 2000 --ckpt-out cap_txt.ckpt
filesum capture_txt_ckpt_file cap_ckpt.txt
filesum capture_txt_ckpt_ckpt cap_txt.ckpt

# Checkpoint splits: split NAME NS ARGS... splits at NS ns. The saved
# checkpoint's checksum is pinned too, so a change to what a
# checkpoint holds, or to the order it is written in, shows here.
# (Shell variables are global, so this one must not reuse run's name.)
split() {
    base=$1
    at=$2
    shift 2
    run "${base}_full" "$@" --json
    run "${base}_save" "$@" --ckpt-at "$at" --ckpt-out "$base.ckpt"
    filesum "${base}_ckpt" "$base.ckpt"
    run "${base}_restore" "$@" --ckpt-restore "$base.ckpt" --json
    same "${base}_restore" "${base}_full"
}
# Single-channel splits at 12.345 us.
split ckpt_random 12345
split ckpt_cycle 12345 --model cycle
split ckpt_dram_plugins 12345 --pattern dram --plugins ecc,prac,refmgr \
    --power-down
# Sharded splits: hmc_stack_16 inside its run (which ends at 5.0 us),
# and hbm2_stack_4 off the 1 us grid, at four sim-threads.
split ckpt_hmc_stack_16 2500 --preset hmc_stack_16 --requests 6400
split ckpt_hbm2_stack_4 4321 --preset hbm2_stack_4 --sim-threads 4

# A checkpoint restores its generators' request counts, so a restore
# with a different --requests exits 1 naming both counts: the
# single-channel 20000-request split above, and hmc_stack_16's 6400.
both dramctrl_cli ckpt_requests_differ --requests 8000 \
    --ckpt-restore ckpt_random.ckpt
both dramctrl_cli ckpt_requests_differ_sharded --preset hmc_stack_16 \
    --requests 3200 --ckpt-restore ckpt_hmc_stack_16.ckpt

# A split at or after the end of the run is refused: hmc_stack_16 with
# 6400 requests completes at 5.0 us, so 5.5 us must exit 1 and write
# no checkpoint.
run ckpt_past_end --preset hmc_stack_16 --requests 6400 --ckpt-at 5500 \
    --ckpt-out past_end.ckpt --json
if [ -e past_end.ckpt ]; then
    echo "FAIL ckpt_past_end wrote a checkpoint"
    status=1
fi

# The other tools: a sweep grid over a config file with a plugin, a
# verbose fuzz batch, and the replays of the committed repros.
tool sweep_cli sweep_config_ecc --config ddr4.json --plugins ecc \
    --format jsonl --pattern random,dram --read-pct 50,100 \
    --requests 500 --seeds 2
tool fuzz_cli fuzz_verbose --runs 8 --seed 1 --verbose
tool fuzz_cli fuzz_repro_trcd --repro tests/repros/injected_trcd_fault.json
tool fuzz_cli fuzz_repro_clean --repro tests/repros/clean_baseline.json

# A failing fuzz case writes its repro under --out-dir, which fuzz_cli
# creates: the nested out/fuzz does not exist beforehand.
tool fuzz_cli fuzz_inject_out_dir --runs 1 --seed 1 --inject-bug \
    --out-dir out/fuzz
filesum fuzz_inject_out_dir_repro out/fuzz/fuzz_fail_0.json

# --trace-capture does not create directories: a prefix in a missing
# one exits 1 with the fatal line naming the file, before any summary.
both fuzz_cli fuzz_capture_nodir --runs 1 --seed 1 \
    --trace-capture nodir/x_

# A repro is read as strictly as a config file: a copy of the clean
# baseline with a misspelt top-level key and a first stream row of
# [1.5, "x"] exits 1 naming the key.
sed -e 's/"streamSeed"/"streamSed"/' -e 's/^      2814,$/      1.5, "x"/' \
    -e '/^      1799152,$/d' -e '/^      32,$/d' -e '/^      true$/d' \
    tests/repros/clean_baseline.json > bad_repro.json
both fuzz_cli bad_repro_key --repro bad_repro.json

# A grid with a point the cycle model cannot run is refused before any
# job runs: exit 1, naming the feature.
both sweep_cli sweep_cycle_refused --preset ddr3_1333 \
    --page open,open_adaptive --model both --requests 200
both dramctrl_cli runs_cycle_refused --preset ddr3_1333 --model cycle \
    --runs 3 --page open_adaptive

# Every tool's --help.
both dramctrl_cli help_dramctrl_cli --help
both sweep_cli help_sweep_cli --help
both fuzz_cli help_fuzz_cli --help
both trace_cli help_trace_cli --help

# A malformed number exits 1 with a message naming the option and the
# value: no abort, and no silently truncated value.
both dramctrl_cli bad_number_dramctrl_cli --requests 10x
both sweep_cli bad_number_sweep_cli --seeds x
both fuzz_cli bad_number_fuzz_cli --runs 1x
both trace_cli bad_number_trace_cli head example.dtrc -n abc

# A config file's count must be a whole number that fits its field: a
# fractional one exits 1 naming the section and the key.
printf '{"preset": "ddr3_1333", "organisation": {"banksPerRank": 8.7}}\n' \
    > fractional_count.json
both dramctrl_cli bad_count_config --config fractional_count.json \
    --requests 200

exit $status
