#!/usr/bin/env bash
# Builds vkperf from source into <repo>/.bench_build and runs it with the
# given arguments, e.g.
#
#   bash cmd/vkperf/run.sh --workload fleet-warm --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache, temporary files and the go command's
# telemetry counters (kept under XDG_CONFIG_HOME) stay under .bench_build
# too, so a run reads and writes nothing outside the checkout but the
# toolchain.
# vkperf is a module of its own that replaces `repro` with the enclosing
# repository, so the build fails (non-zero exit, no result line) when
# the repository around cmd/vkperf is missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/vkperf" .)

cd "$root"
exec "$out/vkperf" "$@"
