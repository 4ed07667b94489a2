#!/usr/bin/env bash
# A/B the end-to-end benchmark's host cost between two checkouts:
#
#   tools/ab_wall.sh <parent-checkout> <workload> [pairs=10]
#
# Builds `benchmark/` in <parent-checkout> and in this tree, runs the
# workload <pairs> times on each side in alternating order (the side that
# goes first flips every pair, so drift on a shared box hits both), and
# prints, for `wall_s`, `setup_s` and `peak_rss_mb` alike — the three
# host metrics the benchmark bounds — per side the median and quartiles,
# how many pairs each side won (a tie counts for neither), and whether
# the medians are further apart than the parent's own quartiles — so a
# memory claim and its time checks come from the same pairs. Then each
# side's event count per repetition and whether it is the same in every
# run, so an event cut shows in the same pairs.
# Last, whether the three simulated metrics and the correctness counts
# are identical in every run of both sides — which a host-cost change
# owes and a commit-path change does not. SEED picks the plan seed
# (default: the reference seed).
#
# Nothing under `benchmark/` is modified; each tree builds into its own
# `benchmark/target`, exactly as the benchmark driver does.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 3 ]]; then
  echo "usage: $0 <parent-checkout> <workload> [pairs=10]" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$(dirname "$0")/.." && pwd)"
workload="$2"
pairs="${3:-10}"
seed="${SEED:-0x0D5B11}"
unset CARGO_TARGET_DIR

for tree in "$parent" "$change"; do
  cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
done

# One run of a tree's benchmark; its result is the last stdout line. Of
# the per-repetition narration on stderr, each `rep N: …, E events` line's
# E is appended to $scratch/$2.events, one run per line.
run() {
  (cd "$1/benchmark" && target/release/odsbench \
    --workload "$workload" --seed "$seed" --seconds 12 --trace 0 2>"$scratch/stderr" | tail -n 1)
  sed -n 's/.* rep [0-9]*: .* \([0-9]*\) events$/\1/p' "$scratch/stderr" | paste -sd ' ' >>"$scratch/$2.events"
}
metric() { sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" <<<"$1"; }
# What must not move: correctness counts and the simulated metrics.
simulated() {
  echo "${1%%,\"metrics\"*} $(metric "$1" commit_p50_us) $(metric "$1" commit_p99_us) $(metric "$1" commits_per_sim_s)"
}

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
metrics=(wall_s setup_s peak_rss_mb)
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order=(parent change); else order=(change parent); fi
  for side in "${order[@]}"; do
    out="$(run "${!side}" "$side")"
    for m in "${metrics[@]}"; do
      if [[ -z "$(metric "$out" "$m")" ]]; then
        echo "$0: no $m in the result line from the $side tree's benchmark" >&2
        exit 1
      fi
      metric "$out" "$m" >>"$scratch/$side.$m"
    done
    simulated "$out" >>"$scratch/simulated"
  done
  line="pair $(printf %2d "$i") (${order[0]} first):"
  for m in "${metrics[@]}"; do
    p="$(tail -n 1 "$scratch/parent.$m")"
    c="$(tail -n 1 "$scratch/change.$m")"
    verdict="$(awk -v p="$p" -v c="$c" 'BEGIN { print (c < p) ? "win" : (c > p) ? "loss" : "tie" }')"
    echo "$verdict" >>"$scratch/verdicts.$m"
    line+="$(printf '  %s parent %.3f change %.3f ratio %.3f %s' \
      "$m" "$p" "$c" "$(awk -v p="$p" -v c="$c" 'BEGIN { print c / p }')" "$verdict")"
  done
  echo "$line"
done

# "q1 median q3" of a file of numbers (linear interpolation between ranks).
quartiles() {
  sort -g "$1" | awk '
    { v[NR] = $1 }
    function q(f,   h, lo) { h = 1 + (NR - 1) * f; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
    END { printf "%.4f %.4f %.4f\n", q(0.25), q(0.5), q(0.75) }'
}
echo "workload $workload  seed $seed  pairs $pairs"
for m in "${metrics[@]}"; do
  read -r pq1 pmed pq3 <<<"$(quartiles "$scratch/parent.$m")"
  read -r cq1 cmed cq3 <<<"$(quartiles "$scratch/change.$m")"
  wins="$(grep -c '^win$' "$scratch/verdicts.$m" || true)"
  losses="$(grep -c '^loss$' "$scratch/verdicts.$m" || true)"
  echo "parent $m: median $pmed  quartiles $pq1 .. $pq3"
  echo "change $m: median $cmed  quartiles $cq1 .. $cq3"
  awk -v m="$m" -v w="$wins" -v l="$losses" -v n="$pairs" -v pm="$pmed" -v cm="$cmed" -v q1="$pq1" -v q3="$pq3" 'BEGIN {
    printf "%s: change won %d of %d pairs, parent won %d (%d ties); median change/parent %.3f; medians %.4f apart, parent quartiles %.4f apart\n",
      m, w, n, l, n - w - l, cm / pm, pm - cm, q3 - q1
    gain = (w * 10 >= n * 9 && pm - cm > q3 - q1)
    print m (gain ? ": gain resolved" : ": no gain resolved")
  }'
done
for side in parent change; do
  if [[ "$(sort -u "$scratch/$side.events" | wc -l)" -eq 1 ]]; then
    echo "$side events per repetition: $(head -n 1 "$scratch/$side.events") (identical in all $pairs runs)"
  else
    echo "$side events per repetition: DIFFER between runs:"
    sort "$scratch/$side.events" | uniq -c
  fi
done
if [[ "$(sort -u "$scratch/simulated" | wc -l)" -eq 1 ]]; then
  echo "simulated metrics: identical in all $((2 * pairs)) runs ($(head -n 1 "$scratch/simulated"))"
else
  echo "simulated metrics: DIFFER between runs:"
  sort "$scratch/simulated" | uniq -c
fi
