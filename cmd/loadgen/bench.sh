#!/bin/sh
# Builds the load generator from source and runs it with the given arguments.
# Run from the repository root:
#
#	sh cmd/loadgen/bench.sh --workload perfect --seed 1 --seconds 15 --trace 0
#
# Everything the build leaves behind (compiler cache, temporary files, the
# toolchain's own config and telemetry, the binary) goes to .bench_build/
# under the current directory, and the build is offline: the module needs
# nothing beyond the repository and the standard library.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/cmd/loadgen" && go build -o "$out/loadgen" .)
exec "$out/loadgen" "$@"
