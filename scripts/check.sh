#!/usr/bin/env sh
# Tier-1 gate: vet, build, and tests for the whole module. Run from the
# repo root before sending a change. The tests run without the race
# detector so the 0 allocs/op hot-path pins (which skip under -race) are
# asserted; CI's race job runs the suite again under -race. Extra
# arguments go to go test:
#
#   ./scripts/check.sh          # full gate (CI's check job)
#   ./scripts/check.sh -short   # quick pass
#   ./scripts/check.sh -race    # race-enabled suite (CI's race job)
set -eu
cd "$(dirname "$0")/.."

go vet ./...
go build ./...
# -race slows the 10k-task simulations well past go test's default
# 10-minute per-package limit when packages run concurrently.
go test -timeout 30m "$@" ./...
