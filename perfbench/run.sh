#!/usr/bin/env bash
# Builds the perfbench harness from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload dense-gb --seed 1 --seconds 26 --trace 0
#
# Every build artifact, cache and temporary file stays under .bench_build/
# in the checkout. The build fails (non-zero exit, no result printed) when
# the platform's sources are not beside perfbench/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOENV=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
