#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it from the checkout's root. Everything the build writes stays
# under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload scale-search --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$root/perfbench" -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
