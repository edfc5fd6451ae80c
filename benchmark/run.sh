#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/ and runs
# it with the given arguments. Everything the build writes (binary, Go build
# cache, toolchain bookkeeping) stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/flexlog-benchmark" .
)
exec "$build/flexlog-benchmark" "$@"
