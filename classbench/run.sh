#!/usr/bin/env bash
# Builds the classroom benchmark from the checkout it sits in and runs
# it with the given flags:
#
#   bash classbench/run.sh --workload semester --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Everything the build and the run write
# (Go build cache, binary, store fixtures, scratch data dirs, span dumps)
# goes under .bench_build/ in that root; nothing is fetched.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

(cd "$root/classbench" && go build -o "$out/classbench" .) >&2
exec "$out/classbench" -root "$root" "$@"
