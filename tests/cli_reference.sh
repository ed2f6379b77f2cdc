#!/usr/bin/env sh
# CLI reference outputs (`ctest -R cli_reference`).
#
# Runs dramctrl_cli over a fixed set of invocations and compares what
# each one prints (stdout plus its exit status) with the reference
# under tests/cli_reference/. Checkpoint splits are also compared with
# the uninterrupted run they split: a restored --json run must print
# exactly what the run without the split prints.
#
# Usage: tests/cli_reference.sh CLI WORK_DIR [--regen]
#
# --regen rewrites the references instead of comparing; review the
# resulting diff under tests/cli_reference/ like any other change.
set -eu

CLI=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
WORK=$2
REGEN=${3:-}
HERE=$(cd "$(dirname "$0")" && pwd)
REF=$HERE/cli_reference

rm -rf "$WORK"
mkdir -p "$WORK"
cd "$WORK"
# Relative paths only: some outputs echo the file names they were given.
cp "$HERE/traces/example.dtrc" .
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

# run NAME ARGS...: run the CLI, record stdout and the exit status.
run() {
    name=$1
    shift
    code=0
    "$CLI" "$@" > "$name.out" || code=$?
    echo "exit $code" >> "$name.out"
    check "$name"
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
run cycle_json --model cycle --json
run trace_replay --pattern trace --trace-in example.dtrc
run hmc_stack_16_json --preset hmc_stack_16 --json
run ch4_linear_audit --channels 4 --pattern linear --audit

# A multi-channel capture, its bytes, and its replay.
run ch4_capture --channels 4 --requests 4000 --trace-capture ch4.dtrc \
    --json
cksum < ch4.dtrc > ch4_capture_file.out
check ch4_capture_file
run ch4_replay --channels 4 --pattern trace --trace-in ch4.dtrc --json

# Single-channel checkpoint splits at 12.345 us.
# (Shell variables are global, so this one must not reuse run's name.)
split() {
    base=$1
    shift
    run "${base}_full" "$@" --json
    run "${base}_save" "$@" --ckpt-at 12345 --ckpt-out "$base.ckpt"
    run "${base}_restore" "$@" --ckpt-restore "$base.ckpt" --json
    same "${base}_restore" "${base}_full"
}
split ckpt_random
split ckpt_cycle --model cycle
split ckpt_dram_plugins --pattern dram --plugins ecc,prac,refmgr \
    --power-down

# A split at or after the end of the run is refused: hmc_stack_16 with
# 6400 requests completes at 5.0 us, so 5.5 us must exit 1 and write
# no checkpoint.
run ckpt_past_end --preset hmc_stack_16 --requests 6400 --ckpt-at 5500 \
    --ckpt-out past_end.ckpt --json
if [ -e past_end.ckpt ]; then
    echo "FAIL ckpt_past_end wrote a checkpoint"
    status=1
fi

exit $status
