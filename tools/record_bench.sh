#!/usr/bin/env bash
# Record one step of the benchmark trajectory: an A/B of the current
# checkout against PARENT_REF on every BENCHMARK.json workload.
#
# Usage: tools/record_bench.sh [--seeds S[,S...]] [--out FILE]
#                              PARENT_REF PAIRS
#
# PARENT_REF is checked out into a temporary local clone (removed on
# exit). For each seed (default 42) and each of PAIRS pairs, every
# workload runs `perfbench/run.py --trace 0 --seconds <run_seconds>`
# once in the parent and once in this checkout, the side that goes
# first alternating from pair to pair. Each side builds perfbench in
# its own tree (.bench_build/). Neither perfbench/ nor BENCHMARK.json
# is edited.
#
# The output (default BENCH_<n>.json at the repository root, n one
# past the highest existing) holds the provenance, every run's
# end-to-end metrics, each side's median and quartiles per metric,
# and per metric the number of pairs the change won.

set -euo pipefail

usage() {
    echo "usage: $0 [--seeds S[,S...]] [--out FILE] PARENT_REF PAIRS" >&2
    exit 2
}

seeds=42
out=""
while [[ $# -gt 0 && "$1" == --* ]]; do
    case "$1" in
      --seeds) seeds="${2:?}"; shift 2 ;;
      --out) out="${2:?}"; shift 2 ;;
      *) usage ;;
    esac
done
[[ $# -eq 2 ]] || usage
parent_ref="$1"
pairs="$2"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
parent_sha="$(git -C "$repo_root" rev-parse --verify "$parent_ref^{commit}")"
if [[ -z "$out" ]]; then
    last=$(ls "$repo_root" | sed -n 's/^BENCH_\([0-9]\+\)\.json$/\1/p' |
           sort -n | tail -1)
    out="$repo_root/BENCH_$(( ${last:-0} + 1 )).json"
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
git clone --quiet "$repo_root" "$work/parent"
git -C "$work/parent" checkout --quiet "$parent_sha"

mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "$repo_root/BENCHMARK.json")
seconds=$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$repo_root/BENCHMARK.json")

runs="$work/runs.jsonl"
: > "$runs"

# run SIDE DIR WORKLOAD SEED PAIR: one perfbench run, appended to $runs.
run() {
    local side="$1" dir="$2" workload="$3" seed="$4" pair="$5"
    echo "=== pair $pair seed $seed $workload: $side" >&2
    local result
    result=$(cd "$dir" && python3 perfbench/run.py --workload "$workload" \
                 --seed "$seed" --seconds "$seconds" --trace 0 | tail -1)
    python3 -c '
import json, sys
side, workload, seed, pair, result = sys.argv[1:]
print(json.dumps({"side": side, "workload": workload, "seed": int(seed),
                  "pair": int(pair), "result": json.loads(result)}))' \
        "$side" "$workload" "$seed" "$pair" "$result" >> "$runs"
}

for seed in ${seeds//,/ }; do
    for pair in $(seq 1 "$pairs"); do
        for workload in "${workloads[@]}"; do
            if (( pair % 2 )); then
                run parent "$work/parent" "$workload" "$seed" "$pair"
                run change "$repo_root" "$workload" "$seed" "$pair"
            else
                run change "$repo_root" "$workload" "$seed" "$pair"
                run parent "$work/parent" "$workload" "$seed" "$pair"
            fi
        done
    done
done

dirty=false
[[ -n "$(git -C "$repo_root" status --porcelain --untracked-files=no)" ]] &&
    dirty=true
python3 - "$runs" "$repo_root/BENCHMARK.json" "$out" <<EOF
import json, statistics, sys

runs_path, spec_path, out_path = sys.argv[1:]
spec = json.load(open(spec_path))
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
runs = [json.loads(line) for line in open(runs_path)]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


report = {
    "provenance": {
        "parent_ref": "$parent_ref",
        "parent_sha": "$parent_sha",
        "change_sha": "$(git -C "$repo_root" rev-parse HEAD)",
        "change_has_uncommitted_edits": $( $dirty && echo True || echo False ),
        "date_utc": "$(date -u +%Y-%m-%dT%H:%M:%SZ)",
        "nproc": $(nproc),
        "compiler": "$(c++ --version | head -1)",
        "command": "python3 perfbench/run.py --trace 0 --seconds $seconds",
    },
    "pairs": $pairs,
    "workloads": {},
}
for workload in [w["name"] for w in spec["workloads"]]:
    per_seed = {}
    for seed in sorted({r["seed"] for r in runs}):
        mine = [r for r in runs
                if r["workload"] == workload and r["seed"] == seed]
        entry = {"runs": [], "parent": {}, "change": {}, "change_wins": {}}
        for r in sorted(mine, key=lambda r: (r["pair"], r["side"])):
            entry["runs"].append({
                "pair": r["pair"], "side": r["side"],
                "correct": r["result"]["correct"],
                "failed": r["result"]["failed"],
                "metrics": {k: v["value"]
                            for k, v in r["result"]["metrics"].items()}})
        for name, direction in better.items():
            side_values = {}
            for side in ("parent", "change"):
                values = [r["metrics"][name] for r in entry["runs"]
                          if r["side"] == side]
                side_values[side] = values
                q1, median, q3 = quartiles(values)
                entry[side][name] = {"median": median, "q1": q1, "q3": q3}
            wins = 0
            for p, c in zip(side_values["parent"], side_values["change"]):
                wins += (c < p) if direction == "lower" else (c > p)
            entry["change_wins"][name] = wins
        per_seed[str(seed)] = entry
    report["workloads"][workload] = per_seed

with open(out_path, "w") as f:
    json.dump(report, f, indent=1)
    f.write("\n")
print(f"wrote {out_path}")
EOF
