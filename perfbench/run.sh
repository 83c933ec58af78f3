#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload lenet-solo --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Everything the build and the runs
# leave behind stays inside the checkout: the Go build cache, the binary
# and temporary files go to .bench_build/, and per-run artifacts (full
# result with provenance, span dump, self-time table) to .bench_out/.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
