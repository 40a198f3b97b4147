#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the root of the checkout:
#
#   bash xtbench/run.sh --workload des-apps --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
(cd xtbench && go build -o "$out/xtbench" .) >&2
exec "$out/xtbench" "$@"
