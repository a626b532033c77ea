#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ and runs it with the given
# arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload merge-d7 --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build/ in the working directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
go build -C "$here" -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
