#!/usr/bin/env bash
# Paired benchmark runs: a parent revision against the working tree.
#
#   scripts/pairs.sh REV WORKLOAD SEED N [SECONDS [OUTDIR]]
#
# Exports both sides the same way before the first run: REV's committed
# files into OUTDIR/parent with `git archive`, and the working tree's files
# (tracked and untracked, less what .gitignore excludes:
# `git ls-files -co --exclude-standard`) into OUTDIR/change. No worktree is
# registered in the repository. Each side builds and runs from its own
# export, so neither runs from the checkout, and editing the working tree
# while pairs run changes nothing. Then it runs
#
#   bash benchmark/run.sh --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
#
# N times in each export, alternating which side goes first from pair to
# pair. SECONDS defaults to run_seconds of BENCHMARK.json; OUTDIR to a
# fresh temporary directory, which is kept. Each run's last output line
# (its JSON result) is kept as OUTDIR/{parent,change}-<i>.json, its
# standard error as <side>-<i>.log. A run that fails its reference check
# (run.sh exits non-zero but prints its result) is kept and counted; a run
# that prints no result (a build failure) stops the script.
#
# Then, per end-to-end metric of BENCHMARK.json, it prints both sides'
# median and quartiles, the number of pairs the change won, and a verdict
# by benchmark/README.md's "Stating a claim" rule: `better` when the change
# won at least nine pairs in ten and its median beats the parent's by more
# than the parent's inter-quartile range; `worse` when its median is worse
# than the parent's by more than the metric's bound. A metric whose two
# sides are equal on every pair reads `equal`. Failed operations and runs
# that failed a reference check are summed per side. It changes nothing
# under benchmark/.
#
# REV=HEAD on a clean working tree is the A/A control: both exports hold
# the same files, so every verdict must read `-` or `equal`.
set -euo pipefail
if [ $# -lt 4 ]; then
	echo "usage: scripts/pairs.sh REV WORKLOAD SEED N [SECONDS [OUTDIR]]" >&2
	exit 2
fi
rev="$1" workload="$2" seed="$3" n="$4"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
seconds="${5:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' BENCHMARK.json)}"
out="${6:-$(mktemp -d)}"
mkdir -p "$out/parent" "$out/change"
git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$out/parent"
# A tracked file deleted from the working tree is still listed; skip it.
git ls-files -co --exclude-standard -z |
	while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
	tar --null -T - -cf - | tar -x -C "$out/change"

run() { # side index
	local status=0
	bash "$out/$1/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
		2> "$out/$1-$2.log" | tail -n 1 > "$out/$1-$2.json" || status=$?
	if [ ! -s "$out/$1-$2.json" ]; then
		echo "pairs: $1 run $2 printed no result (exit $status); see $out/$1-$2.log" >&2
		exit 1
	fi
	echo "pairs: $1 run $2 done (exit $status)" >&2
}
for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$i"
		run change "$i"
	else
		run change "$i"
		run parent "$i"
	fi
done

python3 - "$root/BENCHMARK.json" "$out" "$n" "$rev" "$workload" "$seed" "$seconds" <<'EOF'
import json, statistics, sys

spec_path, out, n, rev, workload, seed, seconds = sys.argv[1:]
n = int(n)
spec = json.load(open(spec_path))
runs = {side: [json.load(open(f"{out}/{side}-{i}.json")) for i in range(1, n + 1)]
        for side in ("parent", "change")}

def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    return tuple(statistics.quantiles(vals, n=4))

print(f"{workload} seed {seed}, {seconds} s, {n} pairs: {rev} (parent) against the working tree (change)")
print(f"{'metric':16} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'delta':>8} {'wins':>6}  verdict")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in runs["parent"]]
    c = [r["metrics"][name]["value"] for r in runs["change"]]
    pq, cq = quartiles(p), quartiles(c)
    wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
    gain = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
    delta = f"{(cq[1] - pq[1]) / pq[1] * 100:+.1f}%" if pq[1] else "-"
    if p == c:
        verdict = "equal"
    elif wins * 10 >= 9 * n and gain > pq[2] - pq[0]:
        verdict = "better"
    elif pq[1] and -gain / abs(pq[1]) > m["bound"]:
        verdict = "worse"
    else:
        verdict = "-"
    fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
    print(f"{name:16} {fmt(pq):>32} {fmt(cq):>32} {delta:>8} {wins:>3}/{n}  {verdict}")
for side in ("parent", "change"):
    att = sum(r["attempted"] for r in runs[side])
    fail = sum(r["failed"] for r in runs[side])
    bad = sum(1 for r in runs[side] if not r["correct"])
    print(f"{side}: {fail} of {att} operations failed, {bad} runs failed a reference check")
print(f"runs kept in {out}")
EOF
