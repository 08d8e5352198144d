#!/bin/sh
# Checks that command-line binaries reject malformed command lines before
# doing any work.
#
# Usage: rejects_bad_args.sh BINARY... [--workload BINARY...] [--sim BINARY...]
#
# Every binary must exit 2 with nothing on stdout when given an unknown flag
# or a stray positional argument. Binaries listed after --workload carry the
# workload flag group and must do the same for an unknown --model or
# --dataset. Binaries listed after --sim are pensieve_sim: they carry the
# workload group too, and must also reject a flash tier that cannot be built
# and cache flags the chosen --system would silently ignore.

failures=0

expect_usage_error() {
  out=$("$@" 2>/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ] || [ -n "$out" ]; then
    echo "FAIL: '$*' exited $rc (want 2), stdout: $(printf '%s' "$out" | head -c 200)" >&2
    failures=$((failures + 1))
  fi
}

workload=0
sim=0
for bin in "$@"; do
  if [ "$bin" = "--workload" ]; then
    workload=1
    continue
  fi
  if [ "$bin" = "--sim" ]; then
    workload=1
    sim=1
    continue
  fi
  expect_usage_error "$bin" --bogus
  expect_usage_error "$bin" stray
  if [ "$workload" -eq 1 ]; then
    expect_usage_error "$bin" --model=bogus
    expect_usage_error "$bin" --dataset=bogus
  fi
  if [ "$sim" -eq 1 ]; then
    expect_usage_error "$bin" --ssd-capacity=1 --ssd-segment-blocks=0
    expect_usage_error "$bin" --ssd-capacity=-1
    expect_usage_error "$bin" --system=pensieve-gpu --ssd-capacity=16
    expect_usage_error "$bin" --system=vllm --kv-quant=on
  fi
done

if [ "$failures" -gt 0 ]; then
  echo "$failures malformed command line(s) accepted" >&2
  exit 1
fi
