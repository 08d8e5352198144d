#!/bin/sh
# Checks that command-line binaries reject malformed command lines before
# doing any work.
#
# Usage: rejects_bad_args.sh BINARY... [--workload BINARY...]
#
# Every binary must exit 2 with nothing on stdout when given an unknown flag
# or a stray positional argument. Binaries listed after --workload carry the
# workload flag group and must do the same for an unknown --model or
# --dataset.

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
for bin in "$@"; do
  if [ "$bin" = "--workload" ]; then
    workload=1
    continue
  fi
  expect_usage_error "$bin" --bogus
  expect_usage_error "$bin" stray
  if [ "$workload" -eq 1 ]; then
    expect_usage_error "$bin" --model=bogus
    expect_usage_error "$bin" --dataset=bogus
  fi
done

if [ "$failures" -gt 0 ]; then
  echo "$failures malformed command line(s) accepted" >&2
  exit 1
fi
