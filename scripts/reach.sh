#!/usr/bin/env bash
# Reach report: which functions of the pier module no end-to-end surface
# executes, and which ones only a single harness does.
#
# Builds cmd/experiments, every example and the reference benchmark with
# statement coverage over every pier package, then runs: the checked-in
# scenarios at -workers 0 and 4, each ablation on its own, Figures 1 and
# 2 (the latter at 60 nodes, once saving a ring checkpoint and once
# loading it), every example, and one second of each benchmark workload.
# Each harness writes its own coverage directory under cov/ (a
# scenario's two worker counts share one, as do Figure 2's save and load
# runs), and the totals merge them all. So a function the report lists
# at 0.0% is one nothing the tree ships executes. A package that none of
# those binaries links has no rows in the coverage data at all; the
# report lists each such package that declares functions under its own
# heading, since its code is unreached too and is left out of the total.
#
# A last section names, for each cmd/experiments harness, the functions
# outside internal/experiments and cmd/experiments that it reaches and no
# other run does: a harness earns its place by reaching code nothing
# else runs. It is a report, not a gate: it exits 0 whatever it finds,
# and non-zero only when a build fails.
#
#   scripts/reach.sh [OUTDIR [EXTRA...]]
#
# OUTDIR (default .reach) receives the binaries, the raw coverage data
# (cov/<harness>/), the ring checkpoint (ring.ckpt), func.txt (every
# function's statement coverage over all runs, from `go tool covdata
# func`), unreached.txt (the 0.0% report) and only.txt (the reached-only-
# by section). Each EXTRA is one more argument list for cmd/experiments,
# run under coverage as harness extra-1, extra-2, ...:
#
#   scripts/reach.sh .reach '-fig 2 -nodes 1000 -workers 2'
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

# run HARNESS CMD...: run CMD with coverage written to cov/HARNESS.
run() {
	local dir="$out/cov/$1"
	shift
	mkdir -p "$dir"
	echo "reach: $*" >&2
	GOCOVERDIR="$dir" "$@" > /dev/null 2>&1 || echo "reach: exit $? from: $*" >&2
}
exp="$out/bin/experiments"
for s in scenarios/*.yaml; do
	for w in 0 4; do
		run "scenario-$(basename "$s" .yaml)" "$exp" -scenario "$s" -workers "$w"
	done
done
# The ablation names are the ones -ablation's usage lists, less "all".
ablations="$("$exp" -h 2>&1 | sed -n 's/.*ablation to run (\([^)]*\)).*/\1/p' | tr '|' ' ')"
[ -n "$ablations" ] || { echo "reach: no ablation names in the usage text" >&2; exit 1; }
for a in $ablations; do
	[ "$a" = all ] || run "ablation-$a" "$exp" -ablation "$a"
done
run fig1 "$exp" -fig 1
run fig2 "$exp" -fig 2 -nodes 60 -checkpoint-save "$out/ring.ckpt"
run fig2 "$exp" -fig 2 -nodes 60 -checkpoint-load "$out/ring.ckpt"
i=0
for extra in "$@"; do
	i=$((i + 1))
	# Word splitting is the point: EXTRA is one argument list.
	# shellcheck disable=SC2086
	run "extra-$i" "$exp" $extra
done
for name in "${examples[@]}"; do
	run "example-$name" "$out/bin/example-$name"
done
for wl in netmon_shared netmon_mixed filesearch phys_loopback; do
	run "bench-$wl" "$out/bin/pierbench" -workload "$wl" -seed 1 -seconds 1 -out "$out/bench"
done

dirs=("$out"/cov/*/)
dirs=("${dirs[@]%/}")
go tool covdata func -i "$(IFS=,; echo "${dirs[*]}")" > "$out/func.txt"
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

# Reached only by: each harness's reached rows (above 0.0%) as
# "harness<TAB>row", then the rows exactly one harness reaches. Code of
# the harnesses themselves (internal/experiments, cmd/experiments) and of
# the benchmark program is left out: only what they drive counts.
for d in "${dirs[@]}"; do
	go tool covdata func -i "$d" |
		awk -v h="$(basename "$d")" '$1 != "total" && $NF != "0.0%" { print h "\t" $0 }'
done > "$out/reached.txt"
awk -F'\t' 'NR == FNR { n[$2]++; next } n[$2] == 1' "$out/reached.txt" "$out/reached.txt" |
	grep -Ev $'\tpier/(internal/experiments|cmd/experiments|benchmark)/' > "$out/unique.txt" || true
for d in "${dirs[@]}"; do
	h="$(basename "$d")"
	case "$h" in scenario-* | ablation-* | fig* | extra-*) ;; *) continue ;; esac
	awk -F'\t' -v h="$h" '
		$1 == h { n++; sub(/^[^\t]*\t/, ""); rows = rows "  " $0 "\n" }
		END { printf "%s (%d)\n%s", h, n, rows }
	' "$out/unique.txt"
done > "$out/only.txt"
printf '\nreached only by one harness (functions outside internal/experiments and cmd/experiments that no other run reaches), by cmd/experiments harness:\n'
cat "$out/only.txt"
