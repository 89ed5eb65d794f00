#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): build the harness from source
# into the checkout, then run it with the caller's flags. Everything the
# build and the run touch stays inside the checkout: the Go build cache, go's
# own temp and config files and the binary live under .bench_build/, the
# run's scratch space and outputs under benchmark/out/ (both git-ignored).
#
#   bash benchmark/bench.sh --workload grid_paper --seed 1 --seconds 22 --trace 0
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/benchmark" ]]; then
	echo "bench.sh: run from the root of a checkout (go.mod and benchmark/ expected in $root)" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters there.
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local XDG_CONFIG_HOME=$build/config

# go build is a no-op when the binary is current, so only the first run in
# a checkout pays for the compile.
go build -o "$build/quicbench-benchmark" ./benchmark

# Not exec: a child of this shell starts with an empty RUSAGE_CHILDREN, so
# the compiler's memory never counts towards the harness's peak_rss_mb.
"$build/quicbench-benchmark" "$@" &
pid=$!
trap 'kill -TERM "$pid" 2>/dev/null' TERM INT
status=0
wait "$pid" || status=$?
# A trapped signal interrupts wait; wait again until the harness has ended.
while kill -0 "$pid" 2>/dev/null; do
	wait "$pid" || status=$?
done
exit "$status"
