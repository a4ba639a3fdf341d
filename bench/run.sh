#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash bench/run.sh --workload tx-small --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files
# and the binary stay under .bench_build/ in that directory; the first
# run builds, later runs reuse the cache.
#
# The benchmark runs pinned to the first CPU it may use, so that Go runs
# it with GOMAXPROCS 1 and its goroutines take turns on one CPU on every
# host, as the load model (bench/README.md) describes.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod and bench/go.mod)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$out/cxlbench" .

# The first CPU this process may use, from a list such as "0-1" or "2,5-7".
if list=$(taskset -cp $$ 2>/dev/null); then
	first=${list##*: }
	first=${first%%[,-]*}
	exec taskset -c "$first" "$out/cxlbench" "$@"
fi
exec "$out/cxlbench" "$@"
