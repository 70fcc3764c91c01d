#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file go writes — build cache, temporaries, telemetry counters (they go to
# the config directory), the binary — lands
# under .bench_build/ in the checkout, and nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/samoa-benchmark" .

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
if [ -n "$commit" ] && [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then
	commit="$commit+dirty"
fi
export SAMOA_BENCH_COMMIT="$commit"
exec "$build/samoa-benchmark" --spec "$root/BENCHMARK.json" --out "$here/out" "$@"
