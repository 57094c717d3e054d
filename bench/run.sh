#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (Go's build cache, the binary) stays under
# .bench_build/ at the root of the checkout, next to the span files the
# traced run writes; nothing outside the checkout is touched.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/bench" && go build -o "$out/stackbench" .)
cd "$root"
exec "$out/stackbench" "$@"
