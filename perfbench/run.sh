#!/usr/bin/env bash
# Builds the benchmark from the repository's sources and runs it with
# the given arguments (see main.go). Run from anywhere inside a checkout:
#
#   bash perfbench/run.sh --workload oltp-4x4 --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the root
# of the checkout. The build fails, and the script exits non-zero
# without a result, where the repository's sources are missing.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .) >&2
cd "$root"
exec "$out/perfbench.bin" "$@"
