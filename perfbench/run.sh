#!/usr/bin/env bash
# Builds the mobisim benchmark from the sources of the checkout it is run
# from, then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The Go build cache, temporary files and
# the benchmark's own scratch directories all live under .bench_build/, so
# nothing outside the checkout is read or written besides the toolchain.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/home"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOENV=off \
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" HOME="$build/home"

go -C "$root/perfbench" build -o "$build/mobisim-bench" . >&2
exec "$build/mobisim-bench" "$@"
