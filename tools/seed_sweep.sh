#!/usr/bin/env bash
# Run one workload of the end-to-end benchmark over N consecutive seeds:
#
#   tools/seed_sweep.sh [--quick] <workload> [n=40] [first-seed=1]
#
# Builds `benchmark/` once and runs <workload> untraced on seeds
# first-seed, first-seed+1, ... (decimal or 0x-hex), printing per seed
# `correct`, `attempted`, `failed` and the three simulated end-to-end
# metrics (`commit_p50_us`, `commit_p99_us`, `commits_per_sim_s`), then
# how many seeds were correct. Exits non-zero if any seed is not correct
# (the oracle's verdict: every acked commit recovered, and on
# `repair_under_load` every resilver completed with the mirrors equal) or
# printed no result. `--quick` runs each seed at 1/20 scale.
#
# One seed proves little for a change to commit or repair timing; sweep
# 40 of `repair_under_load` before trusting one. Nothing under
# `benchmark/` is modified; it builds into its own `benchmark/target`.
set -euo pipefail

quick=()
args=()
for a in "$@"; do
  if [[ $a == --quick ]]; then quick=(--quick); else args+=("$a"); fi
done
if [[ ${#args[@]} -lt 1 || ${#args[@]} -gt 3 ]]; then
  echo "usage: $0 [--quick] <workload> [n=40] [first-seed=1]" >&2
  exit 2
fi
workload="${args[0]}"
n="${args[1]:-40}"
first=$((${args[2]:-1}))
bench="$(cd "$(dirname "$0")/../benchmark" && pwd)"
unset CARGO_TARGET_DIR

cargo build --release --offline --quiet --manifest-path "$bench/Cargo.toml"

metric() { sed -n "s/.*\"$2\":{\"value\":\([^,}]*\).*/\1/p" <<<"$1"; }
field() { sed -n "s/.*\"$2\":\([^,}]*\).*/\1/p" <<<"$1"; }

printf '%-10s %-7s %9s %6s %13s %13s %17s\n' \
  seed correct attempted failed commit_p50_us commit_p99_us commits_per_sim_s
bad=0
for ((i = 0; i < n; i++)); do
  seed="$(printf '%#x' $((first + i)))"
  # The result is the last stdout line; the benchmark exits non-zero on an
  # oracle violation, which is reported below rather than stopping the sweep.
  out="$(cd "$bench" && target/release/odsbench --workload "$workload" --seed "$seed" \
    --seconds 12 --trace 0 "${quick[@]}" 2>/dev/null | tail -n 1)" || true
  correct="$(field "$out" correct)"
  [[ $correct == true ]] || bad=$((bad + 1))
  printf '%-10s %-7s %9s %6s %13s %13s %17s\n' "$seed" "${correct:-none}" \
    "$(field "$out" attempted)" "$(field "$out" failed)" \
    "$(metric "$out" commit_p50_us)" "$(metric "$out" commit_p99_us)" \
    "$(metric "$out" commits_per_sim_s)"
done
echo "$workload: $((n - bad)) of $n seeds correct"
[[ $bad -eq 0 ]]
