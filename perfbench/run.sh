#!/usr/bin/env bash
# Builds the broker benchmark from source and runs it:
#
#   bash perfbench/run.sh --rates <name=req/s,...> --workload <name> \
#        --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build output, the Go build cache,
# run state and trace files all stay under .bench_build/ there.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/tmp"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/tmp"
export GOPATH="${build}/gopath" GOMODCACHE="${build}/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "${here}" && go build -o "${build}/perfbench" .) >&2
exec "${build}/perfbench" "$@"
