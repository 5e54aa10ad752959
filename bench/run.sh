#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#   bash bench/run.sh --workload gs-wide --seed 1 --seconds 10 --trace 0
# Run it from the root of the repository. Everything the build and the run
# write (Go's build cache and temporary files, the binary, Chrome traces)
# goes under .bench_build/ in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
