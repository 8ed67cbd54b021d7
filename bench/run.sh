#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds flowbench from this
# directory's module (which replaces `flowdiff` with the checkout around
# it) and runs it from here, passing its arguments through. Everything
# the build and the run write stays inside the checkout: the build
# under .bench_build/, results and scratch under bench/out/.
set -eu
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$build/flowbench" .
exec "$build/flowbench" "$@"
