#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in, then runs one
# workload. Run it from the repository root:
#
#	bash perfbench/run.sh --workload sim-episode --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (build cache, binary, trace files).
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/trace" "$@"
