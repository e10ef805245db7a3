#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory. Outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"

go -C "$root/perfbench" build -o "$out/perfbench" . >&2

sha=unknown
if [ -e "$root/.git" ]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --sha "$sha" "$@"
