#!/usr/bin/env bash
# Regenerates the scenario stdout goldens: scenarios/golden/<name>.txt is
# what `cmd/experiments -scenario scenarios/<name>.yaml -workers 0` prints
# on stdout, for every checked-in scenario.
#
#   scripts/goldens.sh
#
# A scenario report is a pure function of its YAML (no wall clock, no host
# state, and the same bytes at any worker count), so CI diffs each run
# against its golden. A change that moves a scenario's output reruns this
# script and commits the new goldens, so the difference shows in the diff.
# It exits non-zero when the build fails or a scenario exits non-zero
# (a failed assertion).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT

go build -o "$bin/experiments" ./cmd/experiments
mkdir -p scenarios/golden
for s in scenarios/*.yaml; do
	name="$(basename "$s" .yaml)"
	"$bin/experiments" -scenario "$s" -workers 0 > "scenarios/golden/$name.txt"
	echo "goldens: scenarios/golden/$name.txt" >&2
done
