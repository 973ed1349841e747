#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Every build
# artifact, the Go build cache included, stays under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
