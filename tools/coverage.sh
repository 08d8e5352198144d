#!/bin/sh
# Line and function coverage of src/*.cc under the Tier-1 tests, and under
# what ships alone.
#
# Usage: tools/coverage.sh [--diff BASE] [BUILD_DIR]
#
# Configures the repository with --coverage -O1 in BUILD_DIR (default:
# build-coverage at the repository root) and builds it once. Phase 1 runs
# what ships: the ctest entries whose names do not end in _test (the
# pensieve_sim goldens, the bench smokes, bench_rejects_unknown_args) and the
# examples/ binaries; the counters are read back with the toolchain's gcov.
# Phase 2 runs the unit tests (the entries ending in _test) on top, and the
# counters are read again.
#
# The report lists, for every src/ .cc file with a line no test ran, the
# never-run line numbers and functions, then the Tier-1 total. Then it lists
# the functions that only unit tests run, and ends with the shipped total:
# the lines phase 1 never ran. With --diff BASE both parts cover only the
# lines (and functions starting on them) that `git diff BASE` adds to
# src/*.cc in the working tree. A failing test does not stop the report: it
# covers whatever ran. Needs gcc, gcov, git and python3.

set -e
root=$(cd "$(dirname "$0")/.." && pwd)
base=
if [ "$1" = "--diff" ]; then
  base=$2
  shift 2
  # Fail before the long build on a base git cannot resolve.
  git -C "$root" rev-parse --verify --quiet "$base^{commit}" > /dev/null ||
    { echo "coverage: unknown git revision '$base'" >&2; exit 2; }
fi
build=${1:-$root/build-coverage}
jobs=$(nproc 2>/dev/null || echo 2)

# The reader, run after each phase: `snapshot` saves phase 1's counters,
# `report` prints both reports.
report=$(cat <<'EOF'
import json
import os
import re
import subprocess
import sys

mode, root, build, base = sys.argv[1:5]
src = os.path.join(root, "src") + os.sep
snapshot = os.path.join(build, "coverage_shipped.json")


def added_lines(base):
    """Maps each src/*.cc path to the line numbers `git diff base` adds."""
    diff = subprocess.run(
        ["git", "-C", root, "diff", "--unified=0", "--no-color",
         "--src-prefix=a/", "--dst-prefix=b/", base, "--", "src"],
        capture_output=True, text=True, check=True).stdout
    added, path, line, pending = {}, None, 0, 0
    for text in diff.splitlines():
        if pending > 0:
            # Hunk body: count the added lines the header announced.
            if text.startswith("+"):
                if path is not None:
                    added.setdefault(path, set()).add(line)
                line += 1
                pending -= 1
        elif text.startswith("+++ "):
            name = text[4:]
            path = (os.path.join(root, name[2:])
                    if name.startswith("b/") and name.endswith(".cc") else None)
        elif text.startswith("@@"):
            start, count = re.match(r"@@ -\S+ \+(\d+)(?:,(\d+))?", text).groups()
            line, pending = int(start), int(count or 1)
    return added


def ranges(numbers):
    """Formats sorted line numbers as '3-5, 9'."""
    out, start, prev = [], None, None
    for n in numbers + [None]:
        if start is not None and n == prev + 1:
            prev = n
            continue
        if start is not None:
            out.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = n
    return ", ".join(out)


def counters():
    """Maps each src/*.cc path to ({line: count}, {(start, name): count})."""
    files = {}
    for dirpath, _, names in os.walk(os.path.join(build, "src")):
        for name in sorted(names):
            if not name.endswith(".gcda"):
                continue
            report = subprocess.run(
                ["gcov", "-j", "-t", "-o", dirpath, os.path.join(dirpath, name)],
                cwd=dirpath, capture_output=True, text=True, check=True).stdout
            for entry in json.loads(report)["files"]:
                path = os.path.normpath(os.path.join(dirpath, entry["file"]))
                if not (path.startswith(src) and path.endswith(".cc")):
                    continue
                lines, funcs = files.setdefault(path, ({}, {}))
                for line in entry["lines"]:
                    n = line["line_number"]
                    lines[n] = max(lines.get(n, 0), line["count"])
                for fn in entry["functions"]:
                    key = (fn["start_line"], fn["demangled_name"])
                    funcs[key] = max(funcs.get(key, 0), fn["execution_count"])
    return files


def only_added(files, added):
    """Keeps only the executable lines and functions the change adds."""
    return {path: ({n: c for n, c in lines.items() if n in added[path]},
                   {k: c for k, c in funcs.items() if k[0] in added[path]})
            for path, (lines, funcs) in files.items() if path in added}


if mode == "snapshot":
    # Phase 1's counters, kept for the report after phase 2 adds to them.
    with open(snapshot, "w") as out:
        json.dump({path: [sorted(lines.items()),
                          [[start, name, count]
                           for (start, name), count in sorted(funcs.items())]]
                   for path, (lines, funcs) in counters().items()}, out)
    sys.exit(0)

with open(snapshot) as saved:
    shipped = {path: ({n: c for n, c in lines},
                      {(start, name): c for start, name, c in funcs})
               for path, (lines, funcs) in json.load(saved).items()}
files = counters()
if base:
    added = added_lines(base)
    files = only_added(files, added)
    shipped = only_added(shipped, added)

total = never = 0
for path in sorted(files):
    lines, funcs = files[path]
    missed = sorted(n for n, count in lines.items() if count == 0)
    total += len(lines)
    never += len(missed)
    if not missed:
        continue
    print(f"{os.path.relpath(path, root)}: {len(missed)} of {len(lines)} "
          f"lines never run")
    print(f"  lines: {ranges(missed)}")
    for (start, name), count in sorted(funcs.items()):
        if count == 0:
            print(f"  function (line {start}): {name}")
share = 100.0 * (total - never) / total if total else 100.0
scope = f"added since {base} " if base else ""
print(f"total: {never} of {total} executable lines {scope}in src/*.cc never "
      f"run ({share:.1f}% run)")

# What ships: a line or function phase 1 never reached. A file no shipped
# binary links in has no phase-1 counters at all.
print("run only by unit tests:")
never = 0
for path in sorted(files):
    lines, funcs = files[path]
    ship_lines, ship_funcs = shipped.get(path, ({}, {}))
    never += sum(1 for n in lines if ship_lines.get(n, 0) == 0)
    for (start, name), count in sorted(funcs.items()):
        if count > 0 and ship_funcs.get((start, name), 0) == 0:
            print(f"  {os.path.relpath(path, root)} (line {start}): {name}")
share = 100.0 * (total - never) / total if total else 100.0
print(f"shipped: {never} of {total} executable lines {scope}in src/*.cc never "
      f"run outside unit tests ({share:.1f}% run)")
EOF
)

cmake -B "$build" -S "$root" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O1" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" > /dev/null
cmake --build "$build" -j "$jobs" > /dev/null
find "$build" -name '*.gcda' -delete

# Phase 1: what ships.
log=$build/coverage_shipped.log
if ! ctest --test-dir "$build" -j "$jobs" --timeout 900 -E '_test$' \
    > "$log" 2>&1; then
  echo "coverage: some tests failed (see $log); the report covers what ran" >&2
fi
for example in "$root"/examples/*.cpp; do
  name=$(basename "$example" .cpp)
  if ! "$build/examples/$name" >> "$log" 2>&1; then
    echo "coverage: example $name failed (see $log);" \
      "the report covers what ran" >&2
  fi
done
python3 -c "$report" snapshot "$root" "$build" "$base"

# Phase 2: the unit tests, on top of phase 1's counters.
log=$build/coverage_ctest.log
if ! ctest --test-dir "$build" -j "$jobs" --timeout 900 -R '_test$' \
    > "$log" 2>&1; then
  echo "coverage: some tests failed (see $log); the report covers what ran" >&2
fi
python3 -c "$report" report "$root" "$build" "$base"
