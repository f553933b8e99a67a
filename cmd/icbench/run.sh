#!/usr/bin/env bash
# run.sh builds icbench from the sources of the checkout it is run in
# and runs it with the given arguments, for example
#
#   bash cmd/icbench/run.sh --workload tables --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. The Go build cache, the module
# cache, the Go config directory and the binary all live in
# .bench_build/ under that root, so nothing is read or written outside
# the checkout. Without the repository's own go.mod two levels up the
# build fails, and so does the script.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath \
    XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go -C "$root/cmd/icbench" build -o "$build/icbench" .
exec "$build/icbench" "$@"
