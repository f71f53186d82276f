#!/usr/bin/env bash
# Builds shareinsights and the benchmark from source, then runs the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload rerun --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build in
# the current directory.
set -euo pipefail
root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/shareinsights ]; then
	echo "perfbench: no go.mod or cmd/shareinsights here; run from the repository root" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/run" "$build/config/go/telemetry"
# With telemetry on, the go command starts a detached sidecar process
# that outlives this script; turn it off for the fresh config directory.
printf 'off' >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -o "$build/bin/shareinsights" ./cmd/shareinsights
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -serve "$build/bin/shareinsights" -work "$build/run" "$@"
