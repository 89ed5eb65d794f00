#!/usr/bin/env bash
# The one command: every workload's end-to-end run, then every workload's
# traced run, one JSON object per line on stdout; exits non-zero when any
# run reports failed operations.
#
#   bash benchmark/run.sh              # 5 end-to-end runs + 5 traced runs
#   bash benchmark/run.sh -seed 2      # the same on another seed
#   bash benchmark/run.sh -aa 10       # A/A: two interleaved sets of 10 runs
#                                      # per workload, report on stdout
#
# Run it from the root of a checkout. The A/A mode varies the seed from run
# to run exactly as the benchmark's driver does (run i of either set uses
# seed i), so its spreads hold seed-to-seed variation as well as host noise.
set -euo pipefail

seed=1
aa=0
while [[ $# -gt 0 ]]; do
	case $1 in
	-seed | --seed) seed=$2; shift 2 ;;
	-aa | --aa) aa=$2; shift 2 ;;
	*) echo "usage: run.sh [-seed N] [-aa N]" >&2; exit 2 ;;
	esac
done

bench() { bash benchmark/bench.sh "$@"; }
workloads=$(bench -list)

# last_line prints the result object of a run: the last line of its stdout.
# The run's information block (stderr) is dropped here; it is also stored
# under benchmark/out/.
last_line() { "$@" 2>/dev/null | tail -n 1; }

# failed_ops extracts the "failed" count of a result object without jq.
failed_ops() { sed -E 's/.*"failed":([0-9]+).*/\1/' <<<"$1"; }

if [[ $aa -gt 0 ]]; then
	dir=benchmark/out/aa
	rm -rf "$dir"
	mkdir -p "$dir"
	for w in $workloads; do
		for ((i = 1; i <= aa; i++)); do
			for set in A B; do
				echo "A/A: $w set $set run $i/$aa" >&2
				last_line bench -workload "$w" -seed "$i" -trace 0 >"$dir/$set-$w-$i.json"
			done
		done
	done
	bench -aa "$dir"
	exit $?
fi

status=0
for trace in 0 1; do
	for w in $workloads; do
		if line=$(last_line bench -workload "$w" -seed "$seed" -trace "$trace") && [[ -n $line ]]; then
			echo "$line"
			[[ $(failed_ops "$line") == 0 ]] || status=1
		else
			echo "run.sh: $w (trace $trace) printed no result" >&2
			status=1
		fi
	done
done
exit $status
