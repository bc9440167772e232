#!/usr/bin/env bash
# Builds the benchmark driver from this checkout and runs it; arguments
# pass through (see benchmarks/README.md). Everything the build leaves
# behind — the binary and Go's build cache — stays in .bench_build/ at the
# checkout root, so a run reads and writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -o .bench_build/e2e ./benchmarks/e2e
exec .bench_build/e2e "$@"
