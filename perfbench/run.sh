#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload scale-4096 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/home"
export GOCACHE="$out/cache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home"
export XDG_CACHE_HOME="$out/home"
export GOPATH="$out/home/go"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
