#!/usr/bin/env bash
# Builds the benchmark and cmd/safesensed from the safesense checkout in
# the current directory, then runs one workload:
#
#   bash perfbench/run.sh --workload figures_closed_form --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, the go command's config
# and telemetry, binaries, span dumps) stays under .bench_build/ in the
# checkout. The module has no external dependencies, so the go command
# never needs the network.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/safesensed || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a safesense checkout (go.mod, cmd/safesensed and perfbench/ must exist)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
go build -o "$out/safesensed" ./cmd/safesensed
exec "$out/perfbench" -server-bin "$out/safesensed" -out-dir "$out" "$@"
