#!/usr/bin/env bash
# Driver entry point: builds the benchmark into .bench_build/ inside the
# checkout (build cache included, so nothing is written outside it) and runs
# it from the checkout root. All arguments go to the program.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
