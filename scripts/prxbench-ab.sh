#!/usr/bin/env bash
# A/B comparison of prxbench between a git revision and the working tree.
#
#   scripts/prxbench-ab.sh <rev> <workload> <pairs> [workdir]
#
# Exports <rev> with `git archive` and builds prxbench for it and for the
# working tree (release, --offline, each with its own CARGO_TARGET_DIR
# under <workdir>, default a fresh temporary directory; pass the same
# <workdir> again to reuse both builds). Then runs <pairs> pairs at
# BENCHMARK.json's `run_seconds`, pair i with seed i on both sides,
# alternating which side runs first. Prints, per end-to-end metric, the
# median and quartiles of each side, the ratio of medians, how many pairs
# the working tree won (in the metric's `better` direction, ties counting
# for neither side), and a verdict:
#   won                 the tree won at least 9/10 of the pairs and the
#                       medians differ, in its favour, by more than the
#                       base's interquartile range;
#   worse beyond bound  the tree's median is worse than the base's by more
#                       than the metric's BENCHMARK.json `bound` (relative);
#   unresolved          the base's own interquartile range, relative to its
#                       median, is wider than the bound;
#   within bound        otherwise.
# Finally runs one traced smoke per side (--trace 1 --seed 1), prints its
# `ladder` and `FAILED` lines, and exits non-zero if the working tree's
# traced run fails.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <rev> <workload> <pairs> [workdir]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=$3
repo=$(git rev-parse --show-toplevel)
work=${4:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")

echo "A/B: base=$rev vs working tree, workload=$workload, pairs=$pairs, seconds=$seconds, workdir=$work" >&2
rm -rf "$work/base-src"
mkdir -p "$work/base-src"
git -C "$repo" archive "$rev" | tar -x -C "$work/base-src"
build() { # <repo checkout> <target dir>
    CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet --manifest-path "$1/prxbench/Cargo.toml"
}
build "$work/base-src" "$work/base-target"
build "$repo" "$work/new-target"

run() { # <side> <seed>
    "$work/$1-target/release/prxbench" --workload "$workload" --seed "$2" \
        --seconds "$seconds" --trace 0 | tail -n 1 >"$work/$1-$workload-$2.json"
}
for i in $(seq 1 "$pairs"); do
    if [ $((i % 2)) -eq 1 ]; then order="base new"; else order="new base"; fi
    for side in $order; do
        echo "pair $i/$pairs: $side" >&2
        run "$side" "$i"
    done
done

python3 - "$repo/BENCHMARK.json" "$work" "$workload" "$pairs" <<'PY'
import json, statistics, sys

bench, work, workload, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
load = lambda side, i: json.load(open(f"{work}/{side}-{workload}-{i}.json"))
runs = {s: [load(s, i) for i in range(1, pairs + 1)] for s in ("base", "new")}

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

for s, rs in runs.items():
    bad = sum(1 for r in rs if not r["correct"])
    failed = sum(r["failed"] for r in rs)
    print(f"{s}: {bad} incorrect run(s), {failed} failed operation(s)")

def verdict(base, new, wins, lower, bound):
    (b1, b2, b3), (_, n2, _) = quartiles(base), quartiles(new)
    gain = (b2 - n2) if lower else (n2 - b2)
    if wins >= 0.9 * len(base) and gain > b3 - b1:
        return "won"
    if b2 and -gain / abs(b2) > bound:
        return "worse beyond bound"
    if b2 and (b3 - b1) / abs(b2) > bound:
        return "unresolved"
    return "within bound"

print(f"{'metric':<20} {'base p25/med/p75':>28} {'new p25/med/p75':>28} {'new/base':>9} {'new won':>8}  verdict")
for m in json.load(open(bench))["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    pick = lambda s: [r["metrics"].get(name, {}).get("value") for r in runs[s]]
    base, new = pick("base"), pick("new")
    if None in base or None in new or min(base + new) < 0:
        continue  # not measured by this workload
    wins = sum(1 for b, n in zip(base, new) if (n < b if lower else n > b))
    (b1, b2, b3), (n1, n2, n3) = quartiles(base), quartiles(new)
    ratio = n2 / b2 if b2 else float("nan")
    print(f"{name:<20} {b1:>8.3f} {b2:>9.3f} {b3:>9.3f} {n1:>8.3f} {n2:>9.3f} {n3:>9.3f}"
          f" {ratio:>9.3f} {wins:>5}/{pairs}  {verdict(base, new, wins, lower, m['bound'])}")
PY

# Traced smoke: the per-layer ladder checks only run with --trace 1.
status=0
for side in base new; do
    echo "traced smoke: $side" >&2
    log="$work/$side-$workload-traced.log"
    rc=0
    "$work/$side-target/release/prxbench" --workload "$workload" --seed 1 \
        --seconds "$seconds" --trace 1 >"$log" 2>&1 || rc=$?
    echo "$side traced (--trace 1 --seed 1): exit $rc"
    grep -E '^(ladder|FAILED)' "$log" || true
    if [ "$side" = new ] && [ "$rc" -ne 0 ]; then
        status=1
    fi
done
exit "$status"
