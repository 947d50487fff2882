#!/usr/bin/env bash
# Reach report: which functions of the pier module no end-to-end surface
# executes.
#
# Builds cmd/experiments, every example and the reference benchmark with
# statement coverage over every pier package, then runs into one
# GOCOVERDIR: the checked-in scenarios at -workers 0 and 4, every
# ablation, Figures 1 and 2 (the latter at 60 nodes, once saving a ring
# checkpoint and once loading it), the churnagg ablation at 2000 nodes,
# every example, and one second of each benchmark workload. So a
# function the report lists at 0.0% is one nothing the tree ships
# executes. A package that none of those binaries links has no rows in
# the coverage data at all; the report lists each such package that
# declares functions under its own heading, since its code is unreached
# too and is left out of the total. It is a report, not a gate: it exits
# 0 whatever it finds, and non-zero only when a build fails.
#
#   scripts/reach.sh [OUTDIR [EXTRA...]]
#
# OUTDIR (default .reach) receives the binaries, the raw coverage data
# (cov/), the ring checkpoint (ring.ckpt), func.txt (every function's
# statement coverage, from `go tool covdata func`) and unreached.txt (the
# printed report). Each
# EXTRA is one more argument list for cmd/experiments, run under the same
# coverage:
#
#   scripts/reach.sh .reach '-ablation churnagg -nodes 10000 -workers 2'
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
examples=()
for d in examples/*/main.go; do
	name="$(basename "$(dirname "$d")")"
	examples+=("$name")
	go build -cover -coverpkg=pier/... -o "$out/bin/example-$name" "./examples/$name"
done
go build -C benchmark -cover -coverpkg=pier/... -o "$out/bin/pierbench" .

export GOCOVERDIR="$out/cov"
run() {
	echo "reach: $*" >&2
	"$@" > /dev/null 2>&1 || echo "reach: exit $? from: $*" >&2
}
exp="$out/bin/experiments"
for s in scenarios/*.yaml; do
	for w in 0 4; do
		run "$exp" -scenario "$s" -workers "$w"
	done
done
run "$exp" -ablation all
run "$exp" -fig 1
run "$exp" -fig 2 -nodes 60 -checkpoint-save "$out/ring.ckpt"
run "$exp" -fig 2 -nodes 60 -checkpoint-load "$out/ring.ckpt"
run "$exp" -ablation churnagg -nodes 2000
for extra in "$@"; do
	# Word splitting is the point: EXTRA is one argument list.
	# shellcheck disable=SC2086
	run "$exp" $extra
done
for name in "${examples[@]}"; do
	run "$out/bin/example-$name"
done
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
# Packages with functions but no row in func.txt: no run linked them.
printf 'packages that no run links (their functions are not in the total):\n' >> "$out/unreached.txt"
go list -f '{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}' ./... |
	while read -r pkg files; do
		# Word splitting is the point: files is the package's file list.
		# shellcheck disable=SC2086
		[ -n "$files" ] && grep -q '^func ' $files || continue
		grep -q "^$pkg/[^/]*:" "$out/func.txt" || echo "  $pkg"
	done >> "$out/unreached.txt"
printf 'unreached functions (0.0%% statements), by package:\n'
cat "$out/unreached.txt"
grep '^total' "$out/func.txt" || true
