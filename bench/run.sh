#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build writes (binary, Go build cache) goes under
# .bench_build at the checkout's root; nothing outside the checkout is
# touched. All arguments are passed to the benchmark:
#
#   bash bench/run.sh --workload paper-sweep --seed 0 --seconds 16 --trace 0
#   bash bench/run.sh --compare a/results.jsonl b/results.jsonl
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"

# go build is incremental: after the first run this only checks that
# the binary is current, so a changed source file is always picked up.
(cd "$here" && go build -ldflags "-X main.commit=$commit" -o "$build/bench" .) >&2

exec "$build/bench" "$@"
