#!/usr/bin/env bash
# Builds the ledger benchmark and cmd/dshserve from this tree, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash ledger/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

(cd "$root/ledger" && go build -o "$out/ledger" .)
go build -o "$out/dshserve" ./cmd/dshserve

exec "$out/ledger" -server "$out/dshserve" -work "$out/ledger-work" "$@"
