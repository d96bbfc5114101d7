#!/usr/bin/env bash
# Builds servebench from this checkout's source and runs it with the
# given arguments, e.g.
#
#   bash servebench/run.sh --workload tune-paper --seed 1 --seconds 45 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# The go command keeps its caches, and its telemetry counters under the
# config directory, inside the checkout too.
(
  export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
    GOTOOLCHAIN=local GOWORK=off GOFLAGS=
  # No version-control stamps: the binary, whose hash keys the saved
  # outcome digests, then depends on the source alone.
  cd "$root/servebench" && go build -buildvcs=false -o "$out/bin/servebench" .
)
cd "$root"
exec "$out/bin/servebench" -dir "$out/servebench" "$@"
