#!/usr/bin/env bash
# Builds the host-time training benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash hostbench/run.sh --workload tlstm --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, the go command's temporary, config and
# telemetry files, span files and rerun records all stay under
# .bench_build/hostbench in the working directory.
set -euo pipefail
out="$PWD/.bench_build/hostbench"
mkdir -p "$out/tmp"
(cd hostbench && GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false go build -o "$out/hostbench" .)
exec "$out/hostbench" "$@"
