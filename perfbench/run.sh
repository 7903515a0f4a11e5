#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments. Run from the checkout root:
#
#   bash perfbench/run.sh --workload cg-grid --seed 1 --seconds 36 --trace 0
#
# Everything the build and the run write (Go build cache, the binary,
# scratch stores, Perfetto traces) goes under $CARGO_TARGET_DIR, default
# .bench_build, so the run touches nothing outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off TMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"

go build -C "$here" -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out" "$@"
