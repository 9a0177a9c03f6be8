#!/usr/bin/env bash
# Builds the benchmark and the fsmserved daemon from this checkout's
# source, then runs one benchmark invocation. Run it from the root of
# the checkout:
#
#   bash pipebench/run.sh --workload paper-grid --seed 1 --seconds 25 --trace 0
#
# Everything the build and the runs write goes under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build/pipebench"
mkdir -p "$out/bin" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
(
	cd pipebench
	go build -o "$out/bin/pipebench" .
	go build -o "$out/bin/fsmserved" fsmpredict/cmd/fsmserved
) >&2
exec "$out/bin/pipebench" -work "$out/work" -daemon "$out/bin/fsmserved" "$@"
