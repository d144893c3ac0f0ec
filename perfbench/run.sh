#!/usr/bin/env bash
# Builds the perfbench binary from the sources of the checkout it is run
# in, then runs it with the given arguments. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload preflow-ex --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and Go's temporary files all go under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache
export GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
