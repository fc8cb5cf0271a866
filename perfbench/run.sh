#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload traverse --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs (the Go build cache and the
# binary) stay under .bench_build/ in the checkout. Outside a full checkout
# (no repository module next to perfbench/) the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep every file the toolchain writes (build cache, temporary work
# directories, telemetry counters) inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
