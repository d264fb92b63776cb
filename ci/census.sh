#!/bin/sh
# Reachability census: which non-test functions under internal/ does no
# shipped entry point reach? Builds the ten mains with coverage over every
# package, runs each shipped configuration once into one GOCOVERDIR, and
# prints the internal/ functions left at 0.0 %, sorted, as `file function`.
#
# ci/census.txt is this output with a third column, the reason the function
# stays: `safety` (fault and error text, corrupt-input handling, censoring
# and stall detection, leak and cycle guards, the auditor's cross-checks and
# its test entry points) or the slug of the kept row in DESIGN.md §5 that
# cites the paper section and the test holding it. CI's smoke job diffs the
# first two columns against this script, so a new unreached function must
# be reached, justified there, or removed, and a function that becomes
# reached loses its line.
set -eu
cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
bin=$work/bin
export GOCOVERDIR=$work/cov
mkdir "$bin" "$GOCOVERDIR"

go build -cover -coverpkg=./... -o "$bin/" ./cmd/... ./examples/... ./benchmark

cat >"$work/sum.s" <<'ASM'
        movi  r1, 10
        movi  r0, 0
loop:   add   r0, r0, r1
        addi  r1, r1, -1
        brnz  r1, loop
        store r0, a0, 0
        halt
ASM

# Every run's exit status counts: the demos' and the examples' self-checks
# are gates. (A brace group on the left of `||` would run with -e ignored,
# so the runs go in a subshell whose status is read afterwards.)
set +e
(
	set -e
	for d in ports compute gc io; do
		"$bin/imax" -demo $d
		"$bin/imax" -demo $d -trace -audit -inspect -swapping -mem 2097152 -cpus 4
		"$bin/imax" -demo $d -noxcache -itrace 5
	done
	"$bin/imax" -demo gc -ledger "$work/gc.ledger"
	"$bin/imax" -inject 42
	"$bin/imaxbench"
	"$bin/imaxbench" -md
	for e in multiuser pipeline quickstart sieve swapdemo tapefarm; do
		"$bin/$e"
	done
	"$bin/imaxasm" -trace 5 "$work/sum.s"
	"$bin/benchmark" -reps 1 -scale 0.05
) >"$work/log" 2>&1
status=$?
set -e
if [ $status -ne 0 ]; then
	cat "$work/log" >&2
	exit 1
fi

go tool covdata func -i="$GOCOVERDIR" |
	awk '$1 ~ /^repro\/internal\// && $NF == "0.0%" { sub(/^repro\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1, $2 }' |
	LC_ALL=C sort
