#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload steady-b1-wire3 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# span dumps all go to .bench_build/ under the current directory, and
# the Go toolchain is kept offline and local.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0

# The benchmark is its own module that builds against the repository
# root through a replace directive; outside a checkout this fails.
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
