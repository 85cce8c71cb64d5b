#!/usr/bin/env bash
# Builds the AGENP benchmark from this checkout's sources and runs it.
# Run from the repository root, for example:
#
#   bash agenpbench/run.sh --workload cav-autonomic --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and traces go to .bench_build/.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$bench" && go build -o "$out/agenpbench" .)
exec "$out/agenpbench" "$@"
