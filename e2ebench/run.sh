#!/usr/bin/env bash
# Builds the end-to-end fleet benchmark from this checkout and runs it with
# the given arguments:
#
#   bash e2ebench/run.sh --workload fleet-steady --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd e2ebench && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" "$@"
