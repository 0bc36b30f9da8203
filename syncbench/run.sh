#!/usr/bin/env bash
# Builds syncbench from the source of this checkout and runs it with the
# given flags, e.g.
#
#	bash syncbench/run.sh --workload handoff --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The binary, the Go build cache and
# the trace span dumps all go under .bench_build/ there, so a run writes
# nothing outside the checkout.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/syncbench" && go build -o "$out/syncbench" .)
exec "$out/syncbench" -spans "$out/spans" "$@"
