#!/usr/bin/env bash
# Builds cqmserve and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload fleet|serial|http --seed N --seconds S --trace 0|1
#
# Build outputs, the Go build cache, temporary files and span files go to
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout; nothing is
# written elsewhere.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off CGO_ENABLED=0

go build -o "$out/cqmserve" ./cmd/cqmserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/cqmserve" -out "$out" "$@"
