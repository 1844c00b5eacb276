#!/usr/bin/env bash
# Builds zenbench from source and runs it with the arguments given.
# Run from the root of a checkout: bash bench/run.sh --workload switch_fwd ...
# Everything the build writes (binary, Go build cache) stays in
# .bench_build/ inside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-buildvcs=auto GOTOOLCHAIN=local \
	go build -C bench -o "$build/zenbench" . >&2
exec "$build/zenbench" "$@"
