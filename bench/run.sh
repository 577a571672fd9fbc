#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# from the checkout root. Everything the build writes (compiler cache
# included) stays inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$root/.bench_build"
go build -C bench -o "$root/.bench_build/dpcbench" .
exec "$root/.bench_build/dpcbench" "$@"
