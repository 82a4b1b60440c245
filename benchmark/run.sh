#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and runs
# it with the caller's arguments. Everything the build and the run write —
# the Go build cache, the binary, result and trace files — stays under that
# directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -out "$build/out" "$@"
