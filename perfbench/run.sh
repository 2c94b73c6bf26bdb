#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in
# and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
