#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload lslod-repeat --seed 1 --seconds 15 --trace 0
#
# Build outputs (the Go build cache and the binary) stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$(pwd)/$out" ;; esac
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
