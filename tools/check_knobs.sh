#!/usr/bin/env bash
# Fails when the environment-knob tables in docs/operations.md and the
# TSPN_* variables the code reads disagree.
#
# A read is a getenv("TSPN_...") or EnvInt("TSPN_...") call in src/,
# bench/, examples/ or tests/, or a ${TSPN_...} expansion in
# tools/run_benches.sh. A row is a table line of docs/operations.md that
# starts with a `TSPN_...` cell. Every read needs a row, and every row
# must name a read. Run from anywhere; CI runs it next to the docs link
# check.
#
#   tools/check_knobs.sh

set -u
cd "$(dirname "$0")/.."

reads="$(
  {
    # Joined onto one line so a call split after its '(' still matches.
    find src bench examples tests -type f \
        \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) -print0 |
      xargs -0 cat | tr '\n' ' ' |
      grep -oE '(getenv|EnvInt)\( *"TSPN_[A-Z0-9_]+"' |
      grep -oE 'TSPN_[A-Z0-9_]+'
    grep -oE '\$\{TSPN_[A-Z0-9_]+' tools/run_benches.sh |
      grep -oE 'TSPN_[A-Z0-9_]+'
  } | sort -u
)"
rows="$(grep -oE '^\| `TSPN_[A-Z0-9_]+`' docs/operations.md |
  grep -oE 'TSPN_[A-Z0-9_]+' | sort -u)"

failures=0
for name in $(comm -23 <(echo "$reads") <(echo "$rows")); do
  echo "KNOB WITHOUT ROW: $name is read but has no docs/operations.md row"
  failures=$((failures + 1))
done
for name in $(comm -13 <(echo "$reads") <(echo "$rows")); do
  echo "ROW WITHOUT KNOB: docs/operations.md lists $name, which nothing reads"
  failures=$((failures + 1))
done

if [ "$failures" -gt 0 ]; then
  echo "knob check FAILED: $failures mismatch(es)"
  exit 1
fi
echo "knob check OK: $(echo "$reads" | wc -l) knob(s), each with one row"
