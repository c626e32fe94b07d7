#!/usr/bin/env bash
# Counts Go lines the way the ROADMAP's simplicity yardstick does: lines
# that are neither blank nor a `//` comment, split into non-test files and
# _test.go files. Block comments count as code; the tree has none.
#
#   scripts/loc.sh [-C checkout] [path ...]
#
# Prints one row per yardstick — internal/serve + cmd/ (ROADMAP item 8) and
# the whole repository outside bench/ — then one row per extra path given.
# -C counts another checkout instead of this one, e.g. a clone of the parent
# commit, for a before/after table.
set -euo pipefail

root="$(dirname "$0")/.."
if [ "${1:-}" = "-C" ]; then
  root="$2"
  shift 2
fi
cd "$root"

# count TEST PATH... prints the code lines of the .go files under PATHs
# (outside bench/), non-test files when TEST is 0 and test files when 1.
count() {
  local test="$1"
  shift
  local name=( -name '*.go' ! -name '*_test.go' )
  if [ "$test" = 1 ]; then
    name=( -name '*_test.go' )
  fi
  find "$@" \( -path ./bench -o -path ./.git -o -path ./.bench_build \) -prune -o \
    -type f "${name[@]}" -print0 |
    xargs -0 -r awk '!/^[[:space:]]*$/ && !/^[[:space:]]*\/\//' | wc -l
}

row() {
  local label="$1"
  shift
  printf '%-28s %9d %9d\n' "$label" "$(count 0 "$@")" "$(count 1 "$@")"
}

printf '%-28s %9s %9s\n' scope non-test test
row 'internal/serve + cmd/' ./internal/serve ./cmd
row 'repo outside bench/' .
for p in "$@"; do
  row "$p" "./${p#./}"
done
