#!/usr/bin/env bash
# Same-machine A/B of two revisions on one perfbench workload: the evidence
# a speed claim needs (choosing-metrics guide, section 8).
#
#   usage: scripts/bench_ab.sh [--workload W] [--seed K] [--seconds S]
#                              [--pairs N] [--scratch DIR] BASE HEAD
#
# BASE and HEAD are any git revisions of this repository. Each is exported
# (git archive, so the repository's own .git is never touched) into the
# scratch directory and built and run by its own perfbench/run.py, with its
# own CARGO_TARGET_DIR, so the two sides share no build state. The script
# then runs `run.py --workload W --seed K --seconds S --trace 0` for N pairs
# (default 10), alternating which side runs first. A run whose result is not
# `correct` or has `failed > 0` is rejected, and its pair is dropped.
#
# For every end-to-end metric in HEAD's BENCHMARK.json it prints each side's
# median and quartiles, the pairs HEAD won (ties count for neither side) and
# a verdict:
#   gain        HEAD won >= 9/10 of the pairs and the medians differ, in the
#               better direction, by more than BASE's interquartile range
#   regression  HEAD's median is worse than BASE's by more than the bound
#   unresolved  BASE's spread is wider than the bound and not every HEAD run
#               beats every BASE run
#   no worse    none of the above: within the bound
# Every run's result line is kept under DIR/results for the record.
set -euo pipefail

WORKLOAD=paper_grid
SEED=17
SECONDS_PER_RUN=25
PAIRS=10
SCRATCH=""
usage() {
  sed -n '5,6p' "$0" | sed 's/^# //' >&2
  exit 2
}
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) WORKLOAD=${2:?}; shift 2 ;;
    --seed) SEED=${2:?}; shift 2 ;;
    --seconds) SECONDS_PER_RUN=${2:?}; shift 2 ;;
    --pairs) PAIRS=${2:?}; shift 2 ;;
    --scratch) SCRATCH=${2:?}; shift 2 ;;
    -h|--help) usage ;;
    -*) echo "bench_ab: unknown flag $1" >&2; usage ;;
    *) break ;;
  esac
done
[[ $# -eq 2 ]] || usage
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || { echo "bench_ab: --pairs must be a positive integer" >&2; exit 2; }

REPO=$(git rev-parse --show-toplevel)
BASE_REV=$(git -C "$REPO" rev-parse --verify "$1^{commit}")
HEAD_REV=$(git -C "$REPO" rev-parse --verify "$2^{commit}")
SCRATCH=${SCRATCH:-$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")}
mkdir -p "$SCRATCH/results"
echo "bench_ab: base $BASE_REV, head $HEAD_REV, $WORKLOAD seed $SEED, ${SECONDS_PER_RUN} s x $PAIRS pairs, scratch $SCRATCH"

for side in base head; do
  rev=$BASE_REV
  [[ $side == head ]] && rev=$HEAD_REV
  rm -rf "${SCRATCH:?}/$side"
  mkdir -p "$SCRATCH/$side"
  git -C "$REPO" archive "$rev" | tar -x -C "$SCRATCH/$side"
done

# Runs one side once; prints the path of its result line, or nothing when the
# run failed or its result is rejected.
run_side() {
  local side=$1 pair=$2
  local out="$SCRATCH/results/$side-$pair.out"
  if ! (cd "$SCRATCH/$side" && CARGO_TARGET_DIR="$SCRATCH/$side-target" \
        python3 perfbench/run.py --workload "$WORKLOAD" --seed "$SEED" \
        --seconds "$SECONDS_PER_RUN" --trace 0 > "$out" 2> "$out.err"); then
    echo "bench_ab: $side run $pair failed (see $out.err)" >&2
    return
  fi
  tail -n 1 "$out" > "$out.json"
  if python3 -c 'import json,sys; r=json.load(open(sys.argv[1])); sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)' "$out.json"; then
    echo "$out.json"
  else
    echo "bench_ab: $side run $pair rejected (correct false or failed > 0)" >&2
  fi
}

: > "$SCRATCH/results/pairs.txt"
for ((pair = 1; pair <= PAIRS; ++pair)); do
  order=(base head)
  (( pair % 2 == 0 )) && order=(head base)
  declare -A result=()
  for side in "${order[@]}"; do
    result[$side]=$(run_side "$side" "$pair")
  done
  if [[ -n "${result[base]}" && -n "${result[head]}" ]]; then
    echo "${result[base]} ${result[head]}" >> "$SCRATCH/results/pairs.txt"
    echo "bench_ab: pair $pair done (${order[0]} first)"
  else
    echo "bench_ab: pair $pair dropped" >&2
  fi
  unset result
done

python3 - "$SCRATCH/head/BENCHMARK.json" "$SCRATCH/results/pairs.txt" "$PAIRS" <<'EOF'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
pairs = [line.split() for line in open(sys.argv[2]) if line.strip()]
requested = int(sys.argv[3])


def value(path, name):
    metric = json.load(open(path))["metrics"][name]
    return float(metric["value"] if isinstance(metric, dict) else metric)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


print(f"bench_ab: {len(pairs)} valid pairs of {requested}")
if not pairs:
    sys.exit(1)
for metric in spec["end_to_end"]:
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    try:
        base = [value(b, name) for b, _ in pairs]
        head = [value(h, name) for _, h in pairs]
    except KeyError:
        continue  # not reported by this workload
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    gain = sign * (hm - bm)
    if len(pairs) < requested:
        verdict = "inconclusive (pairs dropped)"
    elif wins >= 0.9 * len(pairs) and gain > b3 - b1:
        verdict = "gain"
    elif bm and -gain / abs(bm) > bound:
        verdict = "regression"
    elif bm and (b3 - b1) / abs(bm) > bound and not (
            min(sign * h for h in head) > max(sign * b for b in base)):
        verdict = "unresolved"
    else:
        verdict = "no worse"
    change = f"{100.0 * (hm - bm) / bm:+.1f}%" if bm else "n/a"
    print(f"{name} [{metric['unit']}, {better} is better, bound {bound}]")
    print(f"  base median {bm:.4g} (q1 {b1:.4g}, q3 {b3:.4g})")
    print(f"  head median {hm:.4g} (q1 {h1:.4g}, q3 {h3:.4g})  {change}")
    print(f"  head won {wins}/{len(pairs)} pairs; verdict: {verdict}")
    print("  base runs: " + " ".join(f"{v:.4g}" for v in base))
    print("  head runs: " + " ".join(f"{v:.4g}" for v in head))
EOF
