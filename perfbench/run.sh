#!/usr/bin/env bash
# Builds the simulator benchmark from the sources of the checkout it sits in
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig5-allreduce --seed 1 --seconds 15 --trace 0
#
# Every build product (binary, Go build cache, temporaries) stays under
# .bench_build at the checkout root. Without the simulator sources next to
# this directory the build fails and nothing is printed on standard output.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
