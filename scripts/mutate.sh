#!/usr/bin/env bash
# Mutation gate for the learner's oracles. Applies three mutations of the
# NTW ranking to a copy of the tree, one at a time, and runs tier-1
# (`go test ./...`) under each; every mutation must make it fail:
#
#   drop-px        rank.Scorer.Score's NTW total is log P(L|X) alone
#   drop-plx       the same total is log P(X) alone
#   half-ranking   core.LearnContext ranks only the first half of the
#                  enumerated wrappers
#
# For each mutation it also prints which sections of the paper oracle
# (internal/experiments/testdata/paper_oracle.golden) moved, by
# regenerating the file with -update-golden in the copy. That line is
# information, not a gate.
#
#   scripts/mutate.sh     exit 0 when every mutation is caught, 1 otherwise
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
tar --exclude=./.git --exclude=./.bench_build --exclude=./bench -c . | tar -x -C "$work"
golden=internal/experiments/testdata/paper_oracle.golden
cp "$work/$golden" "$work/golden.orig"

# moved OLD NEW prints the sections (a title line underlined with dashes,
# then its body) whose body differs between two golden files, by the
# title's part before its colon.
moved() {
  python3 - "$1" "$2" <<'PY'
import re, sys
def sections(path):
    parts = re.split(r"\n([^\n]+)\n-+\n", "\n" + open(path).read())
    return dict(zip(parts[1::2], parts[2::2]))
old, new = sections(sys.argv[1]), sections(sys.argv[2])
print(", ".join(t.split(":")[0] for t in old if old[t] != new.get(t)) or "none")
PY
}

# mutate NAME FILE OLD NEW: replace the one occurrence of OLD in FILE
# with NEW, run tier-1 and the oracle, then put FILE back.
survived=0
mutate() {
  local name="$1" file="$work/$2"
  cp "$file" "$file.orig"
  python3 - "$file" "$3" "$4" <<'PY'
import sys
path, old, new = sys.argv[1:]
src = open(path).read()
if src.count(old) != 1:
    sys.exit("mutate.sh: %s: the text to mutate occurs %d times, want 1: %r" % (path, src.count(old), old))
open(path, "w").write(src.replace(old, new))
PY
  local verdict
  if (cd "$work" && go test ./... > "$work/$name.log" 2>&1); then
    verdict="SURVIVED"
    survived=1
  else
    verdict="caught by $(awk '$1 == "FAIL" && NF > 1 { sub("^autowrap/", "", $2); print $2 }' \
      "$work/$name.log" | paste -sd' ' -)"
  fi
  (cd "$work" && go test ./internal/experiments -run TestPaperOracleGolden -update-golden > /dev/null)
  printf '%-13s %s; oracle sections moved: %s\n' "$name" "$verdict" \
    "$(moved "$work/golden.orig" "$work/$golden")"
  mv "$file.orig" "$file"
  cp "$work/golden.orig" "$work/$golden"
}

mutate drop-px internal/rank/rank.go \
  'sc.Total = sc.LogL + sc.LogX' 'sc.Total = sc.LogL'
mutate drop-plx internal/rank/rank.go \
  'sc.Total = sc.LogL + sc.LogX' 'sc.Total = sc.LogX'
mutate half-ranking internal/core/ntw.go \
  'items := enumRes.Items' 'items := enumRes.Items[:len(enumRes.Items)/2]'

if [ "$survived" -ne 0 ]; then
  echo "mutate.sh: a mutation survived tier-1" >&2
  exit 1
fi
echo "mutate.sh: every mutation caught"
