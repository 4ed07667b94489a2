#!/usr/bin/env bash
# Benchmark-regression gate: re-run the scaling benches with --json in a
# scratch directory and compare against the committed artifact in
# results/. Two arms:
#
#   * throughput (per_sec, mb_s, kops): fails if any fresh number drops
#     below 75% of the committed one — throughput collapse is rot.
#   * latency quantiles (p50/p95/p99 in ns/us/ms): fails if any fresh
#     number exceeds 2x the committed one — a latency blow-up (e.g. the
#     fabric QoS schedulers regressing) is just as much rot, but gets a
#     looser band because tails move more than means.
#
# Speedup ratios and fabric byte counters are deliberately ignored —
# except for the `resilver_mttr` bench, whose artifact captures the
# repairs' per-class fabric byte totals: there a third arm fails if any
# fabric_*_bytes counter grows past 1.25x the committed number (the
# device copy and scrub verbs exist to keep bytes off the wire; footprint
# creep is exactly the regression they can suffer silently).
#
# The `georep` bench gets a recovery-objective arm: any *_rpo_bytes or
# *_rto_ms key failing 1.5x the committed number means the DR site is
# falling further behind (or recovering slower) at the same WAN lag.
# The drained-control keys are committed at 0, so any nonzero fresh
# value fails — exactly right: a drained replica must hold everything.
set -euo pipefail
cd "$(dirname "$0")/.."
repo="$PWD"

BENCHES=(pool_scaling audit_scaling read_scaling persist_modes shard_scaling qos_isolation resilver_mttr georep)

cargo build --release -p pm-bench --bins

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
mkdir -p "$scratch/results"

fail=0
for bench in "${BENCHES[@]}"; do
  committed="$repo/results/BENCH_${bench}.json"
  if [[ ! -f "$committed" ]]; then
    echo "bench-check: missing committed artifact $committed" >&2
    fail=1
    continue
  fi
  echo "bench-check: running $bench"
  (cd "$scratch" && "$repo/target/release/$bench" --json >/dev/null)
  fresh="$scratch/results/BENCH_${bench}.json"

  # Compare "key": value lines for throughput-like and latency-like keys
  # in both files.
  if ! awk -v bench="$bench" '
    /"[A-Za-z0-9_]+":[[:space:]]*-?[0-9]/ {
      line = $0
      gsub(/[",:]/, " ", line)
      split(line, f, /[[:space:]]+/)
      key = f[2]; val = f[3]
      kind = ""
      if (key ~ /(per_sec|mb_s|kops)$/) kind = "tput"
      else if (key ~ /p(50|95|99)_(ns|us|ms)$/) kind = "lat"
      else if (bench == "resilver_mttr" && key ~ /^fabric_[a-z]+_bytes$/) kind = "fab"
      else if (bench == "georep" && key ~ /_(rpo_bytes|rto_ms)$/) kind = "dr"
      if (kind == "") next
      if (NR == FNR) { committed[key] = val; next }
      if (!(key in committed)) { printf "  %s: %s missing from committed artifact\n", bench, key; bad = 1; next }
      seen[key] = 1
      if (key ~ /(per_sec|mb_s|kops)$/ && val + 0 < 0.75 * committed[key]) {
        printf "  %s: %s regressed: %.1f < 75%% of committed %.1f\n", bench, key, val, committed[key]
        bad = 1
      }
      if (key ~ /p(50|95|99)_(ns|us|ms)$/ && val + 0 > 2.0 * committed[key]) {
        printf "  %s: %s latency blew up: %.1f > 2x committed %.1f\n", bench, key, val, committed[key]
        bad = 1
      }
      if (kind == "fab" && val + 0 > 1.25 * committed[key]) {
        printf "  %s: %s fabric bytes grew: %.0f > 1.25x committed %.0f\n", bench, key, val, committed[key]
        bad = 1
      }
      if (kind == "dr" && val + 0 > 1.5 * committed[key]) {
        printf "  %s: %s recovery objective regressed: %.2f > 1.5x committed %.2f\n", bench, key, val, committed[key]
        bad = 1
      }
    }
    END {
      for (k in committed) if (!(k in seen)) { printf "  %s: %s missing from fresh run\n", bench, k; bad = 1 }
      exit bad
    }
  ' "$committed" "$fresh"; then
    fail=1
  fi
done

if [[ $fail -ne 0 ]]; then
  echo "bench-check: FAILED (throughput/latency regression or artifact drift)" >&2
  exit 1
fi
echo "bench-check: throughput within 25% and latency within 2x of committed results"
