#!/bin/sh
# Reruns the pensieve_sim command lines of one group in pensieve_sim_lines.txt
# and diffs their stdout, exit code and CSV files against pensieve_sim/.
#
# Usage: check_pensieve_sim.sh PENSIEVE_SIM GROUP [--update]
#
# --update rewrites the goldens instead of comparing. A golden changes only
# in a commit that names the changed lines and says why.

sim=$1
group=$2
update=$3
here=$(cd "$(dirname "$0")" && pwd)
golden="$here/pensieve_sim"
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

failures=0
runs=0
while read -r line_group name args; do
  case "$line_group" in
    ''|'#'*) continue ;;
  esac
  [ "$line_group" = "$group" ] || continue
  runs=$((runs + 1))
  out="$scratch/$name"
  mkdir -p "$out"
  # Word splitting of $args is intended: the manifest holds plain flags.
  # shellcheck disable=SC2086
  "$sim" $(printf '%s' "$args" | sed "s#@OUT@#$out#g; s#@GOLDEN@#$here#g") \
    > "$out.stdout" 2>/dev/null
  echo "exit $?" >> "$out.stdout"
  sed -i "s#$out#@OUT@#g" "$out.stdout"
  rm -f "$out"/unpinned.*
  for produced in "$out.stdout" "$out"/*; do
    [ -e "$produced" ] || continue
    base=$(basename "$produced")
    if [ "$update" = "--update" ]; then
      cp "$produced" "$golden/$base"
    elif ! diff -u "$golden/$base" "$produced" > "$scratch/diff" 2>&1; then
      echo "FAIL: $name: $base differs from the golden" >&2
      head -n 40 "$scratch/diff" >&2
      failures=$((failures + 1))
    fi
  done
done < "$here/pensieve_sim_lines.txt"

if [ "$runs" -eq 0 ]; then
  echo "FAIL: no command lines in group '$group'" >&2
  exit 1
fi
if [ "$failures" -ne 0 ]; then
  echo "$failures golden file(s) differ in group '$group'" >&2
  exit 1
fi
echo "$runs pensieve_sim line(s) in group '$group' match their goldens"
