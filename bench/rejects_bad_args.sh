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
# workload group too, and must also reject a flash tier that cannot be built,
# cache flags the chosen --system would silently ignore, a malformed on/off
# switch, and cluster options that break a ClusterOptions::Validate rule.

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
    expect_usage_error "$bin" --disagg=on
    expect_usage_error "$bin" --replicas=3 --disagg=on --prefill-replicas=3
    expect_usage_error "$bin" --replicas=3 --disagg=on --autoscale=on
    # A removed switch (cross-replica peer spill) is an unknown flag now.
    expect_usage_error "$bin" --peer-spill=on
    expect_usage_error "$bin" --replicas=2 --fail-replica=5@10
    expect_usage_error "$bin" --replicas=2 --sick-replica=4@1:2
    expect_usage_error "$bin" --replicas=2 --health-probe=on --probe-timeout-ms=0
    expect_usage_error "$bin" --replicas=2 --autoscale=on --scale-up-tokens=10 --scale-down-tokens=20
    expect_usage_error "$bin" --disagg=maybe
    expect_usage_error "$bin" --replicas=0
  fi
done

if [ "$failures" -gt 0 ]; then
  echo "$failures malformed command line(s) accepted" >&2
  exit 1
fi
