#!/usr/bin/env bash
# Paired A/B run of the host benchmark (perfbench/NOTES.md, "Measured
# spread"): builds perfbench from <base-rev> and from the working tree
# into separate target directories, then runs N pairs of untraced runs,
# alternating which side goes first, with one seed per pair. Prints each
# side's median and IQR/median for every end-to-end metric in
# BENCHMARK.json, the change of the medians, and how many pairs the
# working tree won.
#
# Usage: scripts/bench_pairs.sh <base-rev> <workload|all> [pairs]
#
# Each run lasts BENCHMARK.json's run_seconds; pair i uses seed 101+i;
# everything is built and written under .bench_build/pairs.
#
# The base revision is unpacked with `git archive`, so nothing is added
# to the repository's worktree list. Per perfbench/NOTES.md, call a
# median difference unresolved while either side's IQR/median is at or
# above the metric's bound. perfbench pins itself to one CPU, so run
# nothing else meanwhile.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/bench_pairs.sh <base-rev> <workload|all> [pairs]"
if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "$usage" >&2
    exit 2
fi
base_rev=$1
workload=$2
pairs=${3:-10}
if ! [[ $pairs =~ ^[1-9][0-9]*$ ]]; then
    echo "$usage (pairs: a positive integer, not \`$pairs')" >&2
    exit 2
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
seed0=101
work=.bench_build/pairs

base_sha=$(git rev-parse --verify "$base_rev^{commit}")
mkdir -p "$work"
work=$(cd "$work" && pwd)
rm -rf "$work/base-src" "$work/results"
mkdir -p "$work/base-src" "$work/results/base" "$work/results/head"
git archive "$base_sha" | tar -x -C "$work/base-src"
# The workspace lock file is not tracked; all dependencies are path
# crates, so the working tree's lock fits the base as well.
if [ -f Cargo.lock ] && [ ! -f "$work/base-src/Cargo.lock" ]; then
    cp Cargo.lock "$work/base-src/Cargo.lock"
fi

build() { # <tree> <target-dir>
    CARGO_TARGET_DIR=$2 cargo build --quiet --release --offline \
        --manifest-path "$1/perfbench/Cargo.toml"
}
echo "building base ${base_sha:0:12} and the working tree" >&2
build "$work/base-src" "$work/base-target"
build "$PWD" "$work/head-target"

run() { # <side> <pair> <seed>
    local tree=$PWD
    [ "$1" = base ] && tree=$work/base-src
    local out=$work/results/$1
    (cd "$tree" && "$work/$1-target/release/perfbench" --workload "$workload" \
        --seed "$3" --seconds "$seconds" --trace 0 --out "$out/$2" \
        > "$out/$2.log" 2>&1) || {
        echo "$1 run $2 failed; see $out/$2.log" >&2
        exit 1
    }
    tail -n 1 "$out/$2.log" >> "$out/runs.jsonl"
}

for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then order="base head"; else order="head base"; fi
    for side in $order; do
        echo "pair $((i + 1))/$pairs seed $seed: $side" >&2
        run "$side" "$i" "$seed"
    done
done

python3 - "$work/results" BENCHMARK.json <<'EOF'
import json, statistics, sys

results, spec = sys.argv[1], json.load(open(sys.argv[2]))
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
runs = {s: [json.loads(l) for l in open(f"{results}/{s}/runs.jsonl")] for s in ("base", "head")}
for side, rs in runs.items():
    bad = [r for r in rs if r.get("failed", 0) != 0]
    if bad:
        print(f"{side}: {len(bad)} run(s) with failed checks", file=sys.stderr)

def value(v):  # the summary line prints {"value", "unit"} per metric
    return v["value"] if isinstance(v, dict) else v

def spread(xs):
    med = statistics.median(xs)
    if len(xs) < 2:
        return med, float("nan")
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return med, (q3 - q1) / med if med else float("nan")

names = sorted(
    n for n in runs["base"][0]["metrics"]
    if n.rsplit(".", 1)[-1] in better and n in runs["head"][0]["metrics"]
)
print(f"{'metric':<28} {'base median':>12} {'iqr/med':>8} {'head median':>12} {'iqr/med':>8} {'change':>8} {'head won':>9}")
for n in names:
    b = [value(r["metrics"][n]) for r in runs["base"]]
    h = [value(r["metrics"][n]) for r in runs["head"]]
    (bm, bs), (hm, hs) = spread(b), spread(h)
    lower = better[n.rsplit(".", 1)[-1]] == "lower"
    won = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
    change = (hm - bm) / bm if bm else float("nan")
    print(f"{n:<28} {bm:>12.4g} {bs:>8.3f} {hm:>12.4g} {hs:>8.3f} {change:>+8.1%} {won:>5}/{len(b)}")
EOF
