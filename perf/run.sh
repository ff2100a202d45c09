#!/usr/bin/env bash
# The benchmark driver's entry point: builds wanperf inside the benchmark's
# own directory and runs one workload, e.g.
#   bash perf/run.sh --workload sort-push --seed 1 --seconds 10 --trace 0
# Everything the build and the run write (build cache, binary, spill files,
# traces) stays under perf/, in directories .gitignore names.
set -euo pipefail
cd "$(dirname "$0")"
cache="$PWD/.cache"
mkdir -p "$cache/tmp" "$cache/home" .bin
# HOME and the XDG directories keep the go command's own files (telemetry
# counters, env file) inside the checkout too.
HOME="$cache/home" XDG_CONFIG_HOME="$cache/home/.config" XDG_CACHE_HOME="$cache/home/.cache" \
GOCACHE="$cache/go-build" GOTMPDIR="$cache/tmp" GOPATH="$cache/gopath" GOTOOLCHAIN=local GOFLAGS= \
	go build -o .bin/wanperf ./cmd/wanperf
exec .bin/wanperf run -outdir out "$@"
