#!/usr/bin/env bash
# Regenerates cmd/wrapserved/default.pgo, the CPU profile the compiler uses
# to build the serving daemon: `go build ./cmd/wrapserved` reads a
# default.pgo in the main package's directory with no flag (-pgo=auto), and
# spends its inlining budget where the samples are: the parser's per-event
# steps are inlined into its loop, for one.
#
# The profile is the merge of in-repo benchmarks, one per traffic shape the
# daemon serves, each run for the same time so that no shape outweighs
# another:
#
#   BenchmarkServeExtractHTTP          one small page a request
#   BenchmarkServeExtractBulkHTTP      16 large pages a request, an XPATH and an LR site
#   BenchmarkForwardExtractForwarded   a forwarding front relaying to a shard
#   BenchmarkRepairLarge               the heal path (five layouts, a fifth of the time each)
#
# The benchmarks are built with -pgo=off, so the result depends on the code
# alone and not on the profile it replaces. Rerun this after changing a hot
# path — last, on the final code — and commit the new default.pgo.
#
#   scripts/pgo.sh [seconds per benchmark, default 10]
set -euo pipefail
cd "$(dirname "$0")/.."

secs="${1:-10}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# profile NAME PACKAGE BENCHMARK BENCHTIME
profile() {
  echo "pgo: $3 ($4)" >&2
  go test -pgo=off -run '^$' -bench "$3" -benchtime "$4" -count 1 \
    -cpuprofile "$work/$1.pprof" -o "$work/$1.test" "$2" >/dev/null
}
profile small . '^BenchmarkServeExtractHTTP$' "${secs}s"
profile bulk . '^BenchmarkServeExtractBulkHTTP$' "${secs}s"
profile forward . '^BenchmarkForwardExtractForwarded$' "${secs}s"
profile repair ./internal/drift '^BenchmarkRepairLarge$' "$((secs * 200))ms"

go tool pprof -proto "$work"/*.pprof >"$work/merged.pgo" 2>/dev/null
mv "$work/merged.pgo" cmd/wrapserved/default.pgo
echo "pgo: wrote cmd/wrapserved/default.pgo" >&2
