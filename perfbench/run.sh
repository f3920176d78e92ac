#!/usr/bin/env bash
# Builds the benchmark and the dnnperf binary from the checkout's sources
# into .bench_build/ and runs one benchmark workload:
#
#   bash perfbench/run.sh --workload paper|serve|capacity --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every build product, cache and trace
# stays under .bench_build/ so the run reads and writes nothing outside the
# checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# With telemetry on (the default "local" mode), the first go command under a
# fresh config directory forks a detached upload process that outlives this
# script; "go telemetry off" is the one go command that never forks it.
go telemetry off
go build -o "$out/dnnperf" ./cmd/dnnperf
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dnnperf "$out/dnnperf" -out "$out" "$@"
