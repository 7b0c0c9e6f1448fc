#!/usr/bin/env bash
# Builds dvfsbench from this checkout's sources and runs it, e.g.
#
#   bash bench/run.sh --workload submit-small --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, temporary files and
# the span files of traced runs stay under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOPATH=$out/gopath
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$out/dvfsbench" ./dvfsbench)
exec "$out/dvfsbench" -out-dir "$out" "$@"
