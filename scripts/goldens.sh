#!/usr/bin/env bash
# Regenerates the stdout goldens:
#   - scenarios/golden/<name>.txt is what
#     `cmd/experiments -scenario scenarios/<name>.yaml -workers 0` prints on
#     stdout, for every checked-in scenario;
#   - examples/golden/<name>.txt is what `go run ./examples/<name>` prints
#     on stdout, for every example.
#
#   scripts/goldens.sh
#
# A scenario report is a pure function of its YAML (no wall clock, no host
# state, and the same bytes at any worker count), and an example is a fixed
# simulation with a fixed seed, so CI diffs each run against its golden. A
# change that moves a scenario's or an example's output reruns this script
# and commits the new goldens, so the difference shows in the diff.
# It exits non-zero when a build fails, a scenario exits non-zero (a failed
# assertion) or an example exits non-zero.
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

mkdir -p examples/golden
for d in examples/*/main.go; do
	name="$(basename "$(dirname "$d")")"
	go build -o "$bin/$name" "./examples/$name"
	"$bin/$name" > "examples/golden/$name.txt"
	echo "goldens: examples/golden/$name.txt" >&2
done
