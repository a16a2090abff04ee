#!/usr/bin/env bash
# Builds the benchmark inside the checkout it is run from and runs it with
# the given arguments. Everything the build writes (binary, Go build
# cache, the compiler's scratch files and the toolchain's own counters)
# stays under .bench_build/ in that checkout.
#
#   bash bench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f go.mod ]; then
	echo "bench: $root has no go.mod: the benchmark builds the repository's own packages" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local

bin="$build/fedclust-bench"
# Stamp the commit when the checkout is a git repository that git accepts;
# a checkout that is not one builds without the stamp.
go build -o "$bin" ./bench 2>/dev/null || go build -buildvcs=false -o "$bin" ./bench
exec "$bin" "$@"
