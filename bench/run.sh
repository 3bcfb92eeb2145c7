#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout's root.
# Everything the build and the run leave behind stays under .bench_build/
# in the checkout: the Go build cache, the toolchain's scratch and
# telemetry directories, the binary, WAL data dirs and result files.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
(
	cd "$root/bench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOENV=off GOTOOLCHAIN=local GOPROXY=off \
		GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
		go build -o "$build/brb-bench" .
)
cd "$root"
exec "$build/brb-bench" -out "$build/out" "$@"
