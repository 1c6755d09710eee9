#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# and runs it with the arguments the driver appends. Everything the
# build and the run write (Go build cache, binary, feeds, checkpoints)
# lands in .bench_build/ at the root of the checkout, the one place the
# driver lets a run write; feeds and checkpoints are removed on exit.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/iotbench" .)
exec "$build/iotbench" --scratch "$build" --spec "$here/../BENCHMARK.json" "$@"
