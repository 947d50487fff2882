#!/usr/bin/env bash
# Reach report: which functions of the pier module no end-to-end surface
# executes.
#
# Builds cmd/experiments, examples/quickstart and the reference benchmark
# with statement coverage over every pier package, then runs into one
# GOCOVERDIR: the checked-in scenarios at -workers 0 and 4, the
# quickstart, and one second of each benchmark workload. It prints the
# functions left at 0.0%, grouped by package. It is a report, not a gate:
# it exits 0 whatever it finds, and non-zero only when a build fails.
#
#   scripts/reach.sh [OUTDIR [EXTRA...]]
#
# OUTDIR (default .reach) receives the binaries, the raw coverage data
# (cov/), func.txt (every function's statement coverage, from
# `go tool covdata func`) and unreached.txt (the printed report). Each
# EXTRA is one more argument list for cmd/experiments, run under the same
# coverage, so a harness can be compared against the scenarios:
#
#   scripts/reach.sh .reach '-ablation churnagg -nodes 2000'
#
# The benchmark is run as a program with its result files written under
# OUTDIR; nothing under benchmark/ is touched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${1:-.reach}"
[ $# -gt 0 ] && shift
mkdir -p "$out/bin"
out="$(cd "$out" && pwd)"
rm -rf "$out/cov"
mkdir -p "$out/cov"

go build -cover -coverpkg=pier/... -o "$out/bin/experiments" ./cmd/experiments
go build -cover -coverpkg=pier/... -o "$out/bin/quickstart" ./examples/quickstart
go build -C benchmark -cover -coverpkg=pier/... -o "$out/bin/pierbench" .

export GOCOVERDIR="$out/cov"
run() {
	echo "reach: $*" >&2
	"$@" > /dev/null 2>&1 || echo "reach: exit $? from: $*" >&2
}
for s in scenarios/*.yaml; do
	for w in 0 4; do
		run "$out/bin/experiments" -scenario "$s" -workers "$w"
	done
done
for extra in "$@"; do
	# Word splitting is the point: EXTRA is one argument list.
	# shellcheck disable=SC2086
	run "$out/bin/experiments" $extra
done
run "$out/bin/quickstart"
for wl in netmon_shared netmon_mixed filesearch phys_loopback; do
	run "$out/bin/pierbench" -workload "$wl" -seed 1 -seconds 1 -out "$out/bench"
done
unset GOCOVERDIR

go tool covdata func -i "$out/cov" > "$out/func.txt"
# Rows look like "pier/internal/qp/wheel.go:85:<tab>tick<tab>100.0%"; the
# package is the file's directory.
awk '$NF == "0.0%" {
	pkg = $1; sub(/\/[^\/]*$/, "", pkg)
	print pkg "\t" $0
}' "$out/func.txt" | sort -s -k1,1 | awk -F'\t' '
	$1 != last { printf "%s\n", $1; last = $1 }
	{ sub(/^[^\t]*\t/, ""); print "  " $0 }
' > "$out/unreached.txt"
printf 'unreached functions (0.0%% statements), by package:\n'
cat "$out/unreached.txt"
grep '^total' "$out/func.txt" || true
