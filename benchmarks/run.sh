#!/usr/bin/env bash
# Builds xbench from the checkout's own source and runs it with the given
# flags. Build cache, binary and scratch data all stay under .xbench/ in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.xbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$root/benchmarks" && go build -o "$out/xbench" ./xbench)
exec "$out/xbench" -tmp "$out/tmp" "$@"
