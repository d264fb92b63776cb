#!/bin/sh
# The claim harness: paired runs of two commits' benchmark binaries.
#
#   ci/pairs.sh PARENT CHANGE WORKLOAD SEED N [METRIC[,METRIC...] [FLAG...]]
#   ci/pairs.sh PARENT CHANGE diff SEED [FLAG...]
#
# Both modes build `go build ./benchmark` from a detached git worktree of
# each commit (nothing under benchmark/ is touched) and pass FLAGs through to
# every run, after their own (`-scale 0.05` shrinks the population).
#
# The first mode runs N pairs of `-workload WORKLOAD -seconds 2 -trace 0
# -seed SEED`, alternating sides, the parent first in odd pairs, and reads
# each METRIC (default run_s) from each run's result line. Per metric it
# prints every pair, each side's median and quartiles (interpolated as the
# benchmark's own summaries are), and the verdict of the claim rule: the
# change is ahead in 9 of 10 pairs (at least 9N/10 of N, rounded up) and
# the medians are further apart than the parent's quartile distance. Which
# way is ahead is the metric's `better` in BENCHMARK.json. It exits 0
# whether or not the rule holds: the verdict is a report, not a gate.
#
# The diff mode runs each of the six workloads once per side (`-reps 1
# -trace 0 -seed SEED`) and prints every virt_*, allocs_per_op and
# alloc_bytes_per_op value beside its other side's at full precision,
# marking the ones that differ; it exits 1 if a virt_* value differs. It
# prints live_heap_mb the same way, marks the workloads whose two values
# are more than 0.5 % apart and lists them at the end, without gating on
# them: a footprint claim is checked with the same runs.
set -eu
cd "$(dirname "$0")/.."

usage() {
	echo "usage: ci/pairs.sh PARENT CHANGE WORKLOAD SEED N [METRIC[,METRIC...] [FLAG...]]" >&2
	echo "       ci/pairs.sh PARENT CHANGE diff SEED [FLAG...]" >&2
	exit 2
}
# better METRIC prints METRIC's `better` in BENCHMARK.json: lower or higher.
better() {
	awk -v m="\"$1\"" '$0 ~ "\"name\": " m { found = 1 } found && /"better"/ { gsub(/[",]/, "", $2); print $2; exit }' BENCHMARK.json
}
[ $# -ge 4 ] || usage
parent=$1 change=$2 workload=$3 seed=$4
shift 4
if [ "$workload" != diff ]; then
	[ $# -ge 1 ] || usage
	n=$1
	shift
	metrics=run_s
	if [ $# -ge 1 ]; then
		metrics=$(echo "$1" | tr ',' ' ')
		shift
	fi
	for m in $metrics; do
		[ -n "$(better "$m")" ] || { echo "ci/pairs.sh: $m is not a metric of BENCHMARK.json" >&2; exit 2; }
	done
fi

work=$(mktemp -d)
cleanup() {
	for side in parent change; do
		[ -d "$work/$side" ] && git worktree remove --force "$work/$side" >/dev/null 2>&1
	done
	git worktree prune
	rm -rf "$work"
}
trap cleanup EXIT
for side in parent change; do
	if [ $side = parent ]; then rev=$parent; else rev=$change; fi
	git worktree add --quiet --detach "$work/$side" "$rev"
	(cd "$work/$side" && go build -o "$work/$side.bin" ./benchmark)
	echo "$side: $(git rev-parse --short "$rev") $(git log -1 --format=%s "$rev")"
done

# value FILE METRIC prints METRIC's value from the result line ending FILE.
value() {
	tail -n 1 "$1" | sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p"
}

# The pass-through flags, split into words where they are used.
extra=$*

# run SIDE ARGS... runs SIDE's binary and leaves its output in $work/out.
run() {
	side=$1
	shift
	if ! "$work/$side.bin" "$@" $extra >"$work/out" 2>&1; then
		echo "ci/pairs.sh: $side $*: failed" >&2
		cat "$work/out" >&2
		exit 1
	fi
}

if [ "$workload" = diff ]; then
	status=0
	: >"$work/apart"
	for w in serve serve-audit compute churn swap shard; do
		for side in parent change; do
			run $side -workload "$w" -reps 1 -trace 0 -seed "$seed"
			tail -n 1 "$work/out" | tr ',' '\n' | sed -En 's/.*"(virt_[a-z0-9_]+|allocs_per_op|alloc_bytes_per_op|live_heap_mb)":\{"value":(.*)$/\1 \2/p' >"$work/$side.$w"
		done
		if ! awk -v w="$w" -v apart="$work/apart" '
			NR == FNR { p[$1] = $2; next }
			$1 == "live_heap_mb" {
				rel = p[$1] != 0 ? 100 * ($2 - p[$1]) / p[$1] : 0
				mark = rel > 0.5 || rel < -0.5 ? sprintf("  %+.1f%% apart (not gated)", rel) : ""
				printf "%-12s %-20s %24s %24s%s\n", w, $1, p[$1], $2, mark
				if (mark != "") printf " %s", w >>apart
				next
			}
			{
				mark = (p[$1] "") == ($2 "") ? "" : "  differs"
				printf "%-12s %-20s %24s %24s%s\n", w, $1, p[$1], $2, mark
				if (mark != "" && $1 ~ /^virt_/) bad = 1
			}
			END { exit bad }' "$work/parent.$w" "$work/change.$w"; then
			status=1
		fi
	done
	[ -s "$work/apart" ] || printf ' none' >"$work/apart"
	echo "live_heap_mb more than 0.5 % apart on:$(cat "$work/apart")"
	exit $status
fi

: >"$work/pairs"
i=1
while [ "$i" -le "$n" ]; do
	if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	for side in $order; do
		run $side -workload "$workload" -seconds 2 -trace 0 -seed "$seed"
		cp "$work/out" "$work/$side.out"
	done
	for m in $metrics; do
		vp=$(value "$work/parent.out" "$m") vc=$(value "$work/change.out" "$m")
		[ -n "$vp" ] && [ -n "$vc" ] || { echo "ci/pairs.sh: no $m in a result" >&2; exit 1; }
		echo "$m $i $vp $vc" >>"$work/pairs"
	done
	i=$((i + 1))
done

for m in $metrics; do
	grep "^$m " "$work/pairs" | awk -v metric="$m" -v workload="$workload" -v better="$(better "$m")" '
		function q(a, k, p,    x, j) { # a[1..k] sorted; as benchmark/measure.go summarise
			if (k == 1) return a[1]
			x = p * (k - 1); j = int(x)
			if (j + 1 >= k) return a[k]
			return a[j + 1] + (x - j) * (a[j + 2] - a[j + 1])
		}
		function sort(a, k,    i, j, t) {
			for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		}
		{
			k++; p[k] = $3; c[k] = $4
			ahead = better == "lower" ? $4 < $3 : $4 > $3
			wins += ahead
			printf "%s %s pair %2d  parent %-14s change %-14s %s\n", workload, metric, $2, $3, $4, ahead ? "change ahead" : "change not ahead"
		}
		END {
			sort(p, k); sort(c, k)
			pm = q(p, k, 0.5); cm = q(c, k, 0.5)
			pq1 = q(p, k, 0.25); pq3 = q(p, k, 0.75)
			printf "%s %s (%s is better)\n", workload, metric, better
			printf "  parent  median %.6g  q1 %.6g  q3 %.6g\n", pm, pq1, pq3
			printf "  change  median %.6g  q1 %.6g  q3 %.6g\n", cm, q(c, k, 0.25), q(c, k, 0.75)
			gap = better == "lower" ? pm - cm : cm - pm
			need = int((9 * k + 9) / 10)
			rel = pm != 0 ? 100 * (cm - pm) / pm : 0
			printf "  change ahead in %d of %d pairs (need %d); medians %+.1f%% apart, %.6g against the parent quartile distance %.6g\n", wins, k, need, rel, gap, pq3 - pq1
			holds = wins >= need && gap > pq3 - pq1
			printf "  verdict: %s\n", holds ? "claim holds" : "claim does not hold"
		}'
done
