#!/usr/bin/env bash
# Alternating benchmark pairs of two revisions, run from one directory.
#
#   scripts/paired_bench.sh PARENT CHANGE WORKLOAD SEEDS...
#
# Exports CHANGE's tree with `git archive` into one scratch checkout, and the
# `src/classlink` of PARENT and of CHANGE beside it.  Each seed is one pair:
# `perfbench/run.py --workload WORKLOAD --seed SEED` runs once with each
# revision's `src/classlink` moved into the checkout, the order alternating
# from seed to seed.  Both sides thus run from the same directory path and
# with the same `perfbench/`, so a pair compares the library alone.
#
# Environment: RUN_SECONDS (default 30) is passed as `--seconds`, TRACE
# (default 0) as `--trace`; TMPDIR chooses where the checkout is made.
# Each run's output is kept as `<side>-<seed>.log` in the checkout's
# directory, and a table of every metric per pair ends the output.
set -euo pipefail

if [ $# -lt 4 ]; then
    echo "usage: $0 PARENT CHANGE WORKLOAD SEEDS..." >&2
    exit 2
fi
parent=$1 change=$2 workload=$3
shift 3
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
echo "checkout in $work"

mkdir -p "$work/tree" "$work/parent" "$work/change"
git -C "$repo" archive "$change" | tar -x -C "$work/tree"
rm -rf "$work/tree/src/classlink"
git -C "$repo" archive "$parent" src/classlink | tar -x -C "$work/parent"
git -C "$repo" archive "$change" src/classlink | tar -x -C "$work/change"

run() {  # run SIDE SEED: one benchmark run with SIDE's library in the tree
    mv "$work/$1/src/classlink" "$work/tree/src/classlink"
    (cd "$work/tree" && python3 perfbench/run.py --workload "$workload" --seed "$2" \
        --seconds "${RUN_SECONDS:-30}" --trace "${TRACE:-0}") > "$work/$1-$2.log" 2>&1 \
        || echo "run $1 seed $2 exited nonzero" >&2
    mv "$work/tree/src/classlink" "$work/$1/src/classlink"
    echo "$1 seed $2: $(tail -n 1 "$work/$1-$2.log" | cut -c1-80)"
}

turn=0
for seed in "$@"; do
    if [ $((turn % 2)) -eq 0 ]; then
        run parent "$seed"; run change "$seed"
    else
        run change "$seed"; run parent "$seed"
    fi
    turn=$((turn + 1))
done

python3 - "$work" "$@" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

work, seeds = Path(sys.argv[1]), sys.argv[2:]


def result(side, seed):
    lines = (work / f"{side}-{seed}.log").read_text().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "failed": "?", "metrics": {}}


pairs = [(seed, result("parent", seed), result("change", seed)) for seed in seeds]
for seed, p, c in pairs:
    print(f"seed {seed}: failed repeats parent {p.get('failed')}, change {c.get('failed')}; "
          f"correct {p.get('correct')}/{c.get('correct')}")
names = sorted({name for _, p, c in pairs for name in {**p["metrics"], **c["metrics"]}})
print(f"{'metric':<34} " + " ".join(f"{'seed ' + s:>26}" for s in seeds) + "   median")
for name in names:
    cells, deltas = [], []
    for _, p, c in pairs:
        a = p["metrics"].get(name, {}).get("value")
        b = c["metrics"].get(name, {}).get("value")
        if a is None or b is None:
            cells.append(f"{'-':>26}")
            continue
        if a:
            deltas.append(100 * (b - a) / a)
        delta = f"{deltas[-1]:+.1f}%" if a else ""
        cells.append(f"{a:>9.4g} {b:>9.4g} {delta:>6}")
    median = f"{statistics.median(deltas):+.1f}%" if deltas else "-"
    print(f"{name:<34} " + " ".join(cells) + f" {median:>8}")
print("each cell: parent, change, change relative to parent; median of those changes")
EOF
