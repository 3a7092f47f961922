#!/usr/bin/env bash
# Builds xpqd and the benchmark harness from the checkout this script
# sits in, then runs the harness with the given arguments, e.g.
#
#   bash xpqbench/run.sh --workload paper-pages --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build/ there.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/xpqd" ]; then
  echo "xpqbench: run from the root of the repository checkout (no go.mod / cmd/xpqd here)" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTELEMETRY=off GOTOOLCHAIN=local
go build -o "$build/xpqd" ./cmd/xpqd
(cd "$root/xpqbench" && go build -o "$build/xpqbench" .)
exec "$build/xpqbench" --xpqd "$build/xpqd" --work "$build/work" "$@"
