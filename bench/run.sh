#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark (a module of its
# own, bench/go.mod) and cmd/wrapserved from source into .bench_build/ at the
# root of the checkout, then runs the benchmark with the arguments given.
# Everything the toolchain writes (build cache, telemetry, temp files) is
# kept inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
[ -f "$root/go.mod" ] || { echo "bench: $root holds no go.mod: not a checkout of the repository" >&2; exit 1; }
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
