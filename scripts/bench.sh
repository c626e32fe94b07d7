#!/usr/bin/env bash
# Run the benchmark suite and record results in benchmarks/latest.txt.
#
#   BENCH_PATTERN  regexp of benchmarks to run (default: the
#                  regression-tracked set — engine batch learning, the
#                  extraction runtime, the serving daemon and the durable
#                  store/audit append paths; use '.' for
#                  the full paper suite)
#   BENCH_TIME     -benchtime per benchmark (default: 1s)
#   BENCH_COUNT    -count repetitions (default: 1; use >= 3 before
#                  promoting a baseline)
#
# Promote a reviewed result with scripts/bench-update.sh; CI compares
# benchmarks/latest.txt against benchmarks/baseline.txt via
# scripts/bench-compare.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-EngineBatch|Extract|RunBulk16|HealthObserve|ServeExtract|ShardedDispatch|JobsSubmit|LogAppend|AuditAppend}"
TIME="${BENCH_TIME:-1s}"
COUNT="${BENCH_COUNT:-1}"

mkdir -p benchmarks
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$TIME" -count "$COUNT" . \
  | tee benchmarks/latest.txt
echo "wrote benchmarks/latest.txt (pattern=$PATTERN benchtime=$TIME count=$COUNT)"
