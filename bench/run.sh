#!/usr/bin/env bash
# Builds cfmbench and cmd/experiments from the checkout this is run in, then
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash bench/run.sh --workload fleet_serial --seed 42 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the two
# binaries) and the Chrome traces of -trace runs go under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# With telemetry on (the default in a fresh config directory) the go command
# forks a detached upload process that outlives this script. "go telemetry
# off" is the one go command that never starts it.
go telemetry off
go build -o "$out/bin/experiments" ./cmd/experiments
(cd bench && go build -o "$out/bin/cfmbench" ./cfmbench)
exec "$out/bin/cfmbench" -experiments "$out/bin/experiments" -trace-out "$out/traces" "$@"
