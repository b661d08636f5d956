#!/usr/bin/env bash
# Fails when README.md or docs/*.md names a C++ symbol the code no longer
# has.
#
# A symbol is a qualified name, `Name::member` (any depth), inside a
# backticked span; `std::` names are skipped. Every component of it must
# be a whole word somewhere in the code of src/, bench/, examples/, tools/
# or wirebench/ (.h, .cc, .cpp, .py and .sh files). The match is by word,
# not by parse, so a name that survives only in a comment still passes;
# what it catches is a doc that names a deleted or renamed entry point.
# Run from anywhere; CI runs it next to the docs link check.
#
#   tools/check_doc_symbols.sh

set -u
cd "$(dirname "$0")/.."

declare -A known
while IFS= read -r word; do
  known["$word"]=1
done < <(
  find src bench examples tools wirebench -type f \
      \( -name '*.h' -o -name '*.cc' -o -name '*.cpp' -o -name '*.py' \
         -o -name '*.sh' \) -print0 |
    xargs -0 cat | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u
)

failures=0
checked=0
for md in README.md docs/*.md; do
  [ -f "$md" ] || continue
  while IFS= read -r symbol; do
    case "$symbol" in std::*) continue ;; esac
    checked=$((checked + 1))
    IFS=':' read -r -a parts <<< "${symbol//::/:}"
    for part in "${parts[@]}"; do
      part="${part#\~}"
      if [ -z "${known[$part]+x}" ]; then
        echo "STALE SYMBOL: $md names \`$symbol\` ('$part' is not in the code)"
        failures=$((failures + 1))
        break
      fi
    done
  done < <(grep -oE '`[^`]+`' "$md" |
    grep -oE '[A-Za-z_][A-Za-z0-9_]*(::~?[A-Za-z_][A-Za-z0-9_]*)+' | sort -u)
done

if [ "$failures" -gt 0 ]; then
  echo "doc symbol check FAILED: $failures stale symbol(s) of $checked checked"
  exit 1
fi
echo "doc symbol check OK: $checked symbol(s) verified"
