#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments. Run it from the repository root, e.g.
#
#   bash bench/run.sh -workload serve-hot -seed 1 -seconds 20 -trace 0
#
# The binary, the Go build cache and the compiler's temporary files all
# live under .bench_build/, so a run writes nothing outside the checkout.
# Without the repository's sources (only bench/ present) the build fails
# and so does the script, before any result is printed.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/physdep-bench" .)
exec "$out/physdep-bench" "$@"
