#!/usr/bin/env bash
# Builds speedserver, the traced server and the benchmark, tsbench, from this
# checkout into .bench_build/ and runs tsbench with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload adhoc-estimate --seed 1 --seconds 7 --trace 0
#
# The Go build cache, temporary files and tool state all live under
# .bench_build/ too, so a run reads and writes nothing outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# With telemetry on (its default, "local"), a go command forks a detached
# uploader that outlives this script; `go telemetry off` starts none and
# keeps every later go command here from starting one.
go telemetry off
go build -o "$out/speedserver" ./cmd/speedserver
(cd bench && go build -o "$out/tsbench" ./tsbench && go build -o "$out/tracedserver" ./tracedserver)
exec "$out/tsbench" -dir "$out" "$@"
