#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload ft-hot --seed 1 --seconds 15 --trace 0
# Everything it writes (Go build cache, binary, per-run state
# directories, recorded roots) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
# The Go toolchain keeps its cache, module cache, temporary files and
# telemetry counters under these directories; point them all into the
# build directory. VCS stamping is off so the build never looks for a
# repository above the checkout.
export GOCACHE="${build}/gocache" GOMODCACHE="${build}/gomodcache" GOPATH="${build}/gopath"
export TMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/config" GOENV=off GOTOOLCHAIN=local GOWORK=off
export GOFLAGS=-buildvcs=false CGO_ENABLED=0
(cd "${root}/perfbench" && go build -o "${build}/perfbench" .) >&2
exec "${build}/perfbench" "$@"
