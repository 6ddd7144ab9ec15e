#!/bin/sh
# Builds tagbench from the checkout it is run in and runs it with the
# given arguments, e.g. from the repository root:
#
#   sh cmd/tagbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files, the binary, tiered-store files and
# span dumps all stay under .bench_build/ in the current directory, and
# the Go command is kept off the network.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
go -C cmd/tagbench build -o "$out/tagbench" .
exec "$out/tagbench" -workdir "$out" "$@"
