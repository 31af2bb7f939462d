#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# arguments given, from the checkout's root. Everything the build writes
# (binary, build cache, temporary files) goes under .bench_build in the
# checkout; nothing outside the checkout is touched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
bin="$build/bench"

# Rebuild only when a source file is newer than the binary, so that the
# dozens of runs after the first start in milliseconds.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	mkdir -p "$build/tmp"
	(
		cd "$here"
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
			XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
			go build -o "$bin" .
	)
fi
cd "$root"
exec "$bin" "$@"
