#!/usr/bin/env bash
# Alternating-pairs A/B of axsbench: <parent-ref> against HEAD.
#
# Usage: scripts/ab_bench.sh <parent-ref> [pairs=10] [seconds=30] [workload…]
#
# Checks out <parent-ref> and HEAD into git worktrees under the
# git-ignored .bench_build/ (.bench_build/src/{parent,change}), builds
# axsbench and bench_compare once per side, then runs `pairs` pairs,
# alternating which side goes first. With workloads named, each run is
# `axsbench --workload W --seed $SEED --seconds S` per workload (the
# end-to-end pass BENCHMARK.json runs); with none, `axsbench --all` (end-to-end and
# per-layer passes of every workload). Every run's archive lands in
# .bench_build/runs/<stamp>/{parent,change}/NN.json; the script ends with
# `bench_compare parent/ change/` and the per-pair values of $METRICS.
#
# The worktrees stay registered, so a rerun against the same two commits
# reuses their builds; `rm -rf .bench_build/src && git worktree prune`
# removes them.
#
# Environment: SEED (default 2005), METRICS (default
# "read_ops_s read_p50_us query_p50_us scan_mb_s"; end-to-end metric names).
set -euo pipefail

if [[ $# -lt 1 ]]; then
    awk 'NR > 1 && /^#/ { sub(/^# ?/, ""); print; next } NR > 1 { exit }' "$0"
    exit 2
fi
PARENT_REF="$1"
PAIRS="${2:-10}"
SECONDS_PER_RUN="${3:-30}"
shift $(( $# < 3 ? $# : 3 ))
WORKLOADS=("$@")
SEED="${SEED:-2005}"
METRICS="${METRICS:-read_ops_s read_p50_us query_p50_us scan_mb_s}"

ROOT="$(git rev-parse --show-toplevel)"
BUILD="$ROOT/.bench_build"
STAMP="$(date +%Y%m%d-%H%M%S)"
RUNS="$BUILD/runs/$STAMP"
mkdir -p "$BUILD/src" "$RUNS/parent" "$RUNS/change"

declare -A REV=(
    [parent]="$(git -C "$ROOT" rev-parse --verify "$PARENT_REF^{commit}")"
    [change]="$(git -C "$ROOT" rev-parse --verify "HEAD^{commit}")"
)

for side in parent change; do
    wt="$BUILD/src/$side"
    # A worktree already at the wanted commit is reused with its build.
    if [[ "$(git -C "$wt" rev-parse HEAD 2>/dev/null)" != "${REV[$side]}" ]]; then
        git -C "$ROOT" worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
        git -C "$ROOT" worktree prune
        git -C "$ROOT" worktree add --detach --quiet "$wt" "${REV[$side]}"
    fi
    echo "# building $side (${REV[$side]:0:12})"
    cargo build --release --offline --quiet \
        --manifest-path "$wt/axsbench/Cargo.toml" --bin axsbench --bin bench_compare
done

# One run of one side, archived as $RUNS/<side>/<NN>.json in the
# `axsbench --all --out` format bench_compare reads.
run_side() {
    local side="$1" n="$2"
    local bin="$BUILD/src/$side/axsbench/target/release/axsbench"
    local out="$RUNS/$side/$(printf %02d "$n").json"
    if [[ ${#WORKLOADS[@]} -eq 0 ]]; then
        "$bin" --all --seed "$SEED" --seconds "$SECONDS_PER_RUN" --out "$out" \
            > "$out.log"
        return
    fi
    local parts=()
    for w in "${WORKLOADS[@]}"; do
        local line
        line="$("$bin" --workload "$w" --seed "$SEED" --seconds "$SECONDS_PER_RUN" \
            | tee -a "$out.log" | tail -n 1)"
        parts+=("\"$w\": {\"end_to_end\": $line}")
    done
    local joined
    joined="$(IFS=,; echo "${parts[*]}")"
    printf '{"bench": "axsbench", "seed": %s, "seconds": %s, "workloads": {%s}}\n' \
        "$SEED" "$SECONDS_PER_RUN" "$joined" > "$out"
}

for ((i = 1; i <= PAIRS; i++)); do
    if (( i % 2 )); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        echo "# pair $i/$PAIRS: $side"
        run_side "$side" "$i"
    done
done

echo "# archives: $RUNS"
"$BUILD/src/change/axsbench/target/release/bench_compare" \
    "$RUNS/parent" "$RUNS/change" --benchmark "$ROOT/BENCHMARK.json" || true

# Per-pair values: `workload metric pair parent change change/parent`.
echo "# per pair (end_to_end pass)"
for metric in $METRICS; do
    for ((i = 1; i <= PAIRS; i++)); do
        n="$(printf %02d "$i")"
        python3 - "$RUNS/parent/$n.json" "$RUNS/change/$n.json" "$metric" "$i" <<'EOF' \
            || echo "$metric pair $i: (python3 unavailable or metric absent)"
import json, sys
a, b = (json.load(open(p))["workloads"] for p in sys.argv[1:3])
metric, pair = sys.argv[3], sys.argv[4]
for w in a:
    try:
        va = a[w]["end_to_end"]["metrics"][metric]["value"]
        vb = b[w]["end_to_end"]["metrics"][metric]["value"]
    except KeyError:
        continue
    ratio = vb / va if va else float("nan")
    print(f"{w:<11} {metric:<14} pair {pair:>2}  {va:>12.4g} {vb:>12.4g}  {ratio:.3f}")
EOF
    done
done
