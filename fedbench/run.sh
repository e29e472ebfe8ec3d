#!/usr/bin/env bash
# Builds the federation benchmark from source and runs it. Run from the
# repository root; all arguments pass through to the benchmark, e.g.
#
#   bash fedbench/run.sh --workload hot_reads --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
(cd "$root/fedbench" && go build -o "$out/fedbench" .)
exec "$out/fedbench" "$@"
