#!/bin/sh
# Never-executed statements: runs every test once with coverage over
# internal/ and prints, per package, how many statements no test reached,
# then the total of the eight packages that stand for the 432's microcode
# (obj, port, process, sro, domain, typedef, pm, gdp) and the total under
# internal/. A statement no test can reach is neither the least code nor a
# boundary that fails typed (ROADMAP aims 2 and 3), so CI's smoke job holds
# each total to its ceiling below: a PR that adds an unreachable
# `return f` must reach it from a test, or remove it. Lower a ceiling when
# its count falls. The total's ceiling is the count on a host without
# AVX-512: there hashBatch's wide-kernel call (internal/ledger/merkle.go,
# the two statements under `if useAVX512`) is never executed, so a host
# that has it counts two fewer.
set -eu
cd "$(dirname "$0")/.."
ceiling=78
total_ceiling=359
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT

go test -count=1 -coverpkg=./internal/... -coverprofile="$profile" ./internal/... ./cmd/... >/dev/null

# A profile line is `file:span statements count`, one per block per test
# binary: a block is executed if any of its lines counts above zero.
awk -v ceiling="$ceiling" -v total_ceiling="$total_ceiling" '
	NR > 1 { n[$1] = $2; if ($3 > 0) hit[$1] = 1 }
	END {
		for (b in n) if (!(b in hit)) {
			p = b; sub(/\/[^\/]*$/, "", p); sub(/^repro\//, "", p)
			miss[p] += n[b]
			total += n[b]
			if (p ~ /^internal\/(obj|port|process|sro|domain|typedef|pm|gdp)$/) micro += n[b]
		}
		for (p in miss) printf "%5d %s\n", miss[p], p | "LC_ALL=C sort -k2"
		close("LC_ALL=C sort -k2")
		printf "%5d microcode packages (ceiling %d)\n", micro, ceiling
		printf "%5d under internal/ (ceiling %d)\n", total, total_ceiling
		exit micro > ceiling || total > total_ceiling
	}' "$profile"
