#!/usr/bin/env bash
# Check that a change leaves the simulation where it was: "nothing
# simulated moved", as a host-cost or refactoring change claims.
#
#   tools/same_sim.sh [--quick] <parent> [perturb-seed...]
#
# <parent> is a checkout directory or a git revision of this repository
# (exported with `git archive` into a scratch directory). On the parent
# and on this tree it
#
#   1. regenerates the `results/` artifacts — every row of the table in
#      results/README.md, run from a scratch cwd — and diffs them;
#   2. runs the end-to-end benchmark's four workloads on the reference
#      seed 0x0D5B11 and the held-out seed 0x5EED02, and compares
#      `correct` / `attempted` / `failed`, the three simulated end-to-end
#      metrics (untraced run) and every per-layer metric except the
#      host-cost ones: `simcore.*`, `harness.*` and the redo's host
#      timings `txnkit.redo_host_ms` / `txnkit.redo_krec_per_host_s`
#      (traced run);
#   3. diffs `tools/seed_sweep.sh repair_under_load 40`;
#   4. for each perturbation seed, runs step 2 again with SIM_PERTURB set
#      (SimConfig::perturb: another legal schedule of the same model). A
#      parent that predates SIM_PERTURB cannot be compared there; then
#      only this tree's runs are held to `correct: true`.
#
# --quick is a rot check: one artifact, the benchmark at 1/20 scale, two
# seeds of the sweep. Exits non-zero if anything differs or any run is not
# correct. Nothing under `benchmark/` is modified; each tree builds into
# its own `target/` and `benchmark/target`.
set -euo pipefail

quick=()
args=()
for a in "$@"; do
  if [[ $a == --quick ]]; then quick=(--quick); else args+=("$a"); fi
done
if [[ ${#quick[@]} -gt 0 ]]; then sweep_seeds=2; else sweep_seeds=40; fi
if [[ ${#args[@]} -lt 1 ]]; then
  echo "usage: $0 [--quick] <parent-checkout|revision> [perturb-seed...]" >&2
  exit 2
fi
change="$(cd "$(dirname "$0")/.." && pwd)"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
if [[ -d ${args[0]} ]]; then
  parent="$(cd "${args[0]}" && pwd)"
else
  parent="$scratch/parent"
  mkdir "$parent"
  git -C "$change" archive "${args[0]}" | tar -x -C "$parent"
fi
perturbs=("${args[@]:1}")
unset CARGO_TARGET_DIR SIM_PERTURB
status=0
verdict() { # verdict <what> <file-a> <file-b>
  if cmp -s "$2" "$3"; then
    echo "same     $1"
  else
    echo "DIFFERS  $1"
    diff "$2" "$3" | head -n 20 || true
    status=1
  fi
}

# 1. results/ artifacts, every row of the README's table (only T2 in --quick).
rows() {
  sed -n 's/^| `\([^`]*\)` | `cargo run --release -p pm-bench --bin \([a-z0-9_]*\)\( -- \([^`]*\)\)\?` |$/\1 \2 \4/p' \
    "$change/results/README.md" | { [[ ${#quick[@]} -gt 0 ]] && grep '^t2_actions.txt ' || cat; }
}
for side in parent change; do
  tree="${!side}"
  (cd "$tree" && cargo build --release --quiet --offline -p pm-bench --bins)
  mkdir -p "$scratch/$side/results"
  while read -r file bin flags; do
    run="$scratch/run/$side/$bin${flags// /}"
    if [[ ! -d $run ]]; then
      mkdir -p "$run"
      # shellcheck disable=SC2086 # flags are words
      (cd "$run" && "$tree/target/release/$bin" $flags >stdout.txt 2>stderr.txt)
    fi
    case "$file" in
      *.json) cp "$run/results/$file" "$scratch/$side/results/$file" ;;
      *) cp "$run/stdout.txt" "$scratch/$side/results/$file" ;;
    esac
  done < <(rows)
done
for f in "$scratch"/change/results/*; do
  verdict "results/$(basename "$f")" "$scratch/parent/results/$(basename "$f")" "$f"
  cmp -s "$f" "$change/results/$(basename "$f")" || echo "         (this tree's committed copy differs)"
done

# 2. and 4. The benchmark: what a run simulated, without its host costs.
simulated() { # simulated <tree> <workload> <seed>: one line per field
  local out
  for trace in 0 1; do
    out="$(cd "$1/benchmark" && target/release/odsbench --workload "$2" --seed "$3" \
      --seconds 12 --trace "$trace" "${quick[@]}" 2>/dev/null | tail -n 1)" || true
    [[ $trace == 0 ]] && sed -n 's/^{\("correct".*\),"metrics".*/\1/p' <<<"$out" | tr , '\n'
    grep -oE '"[a-z_.0-9]+":\{"value":[^,}]*' <<<"$out" |
      grep -vE '^"(simcore\.|harness\.|txnkit\.redo_[a-z_]*host|wall_s|setup_s|peak_rss_mb)' || true
  done
}
for side in parent change; do
  cargo build --release --quiet --offline --manifest-path "${!side}/benchmark/Cargo.toml"
done
parent_perturbs=1
grep -rqs SIM_PERTURB "$parent/crates/simcore/src" || parent_perturbs=0
for p in "" "${perturbs[@]}"; do
  for workload in trade_pm trade_disk oltp_saturated repair_under_load; do
    for seed in 0x0D5B11 0x5EED02; do
      what="$workload seed $seed${p:+ SIM_PERTURB=$p}"
      SIM_PERTURB="$p" simulated "$change" "$workload" "$seed" >"$scratch/b.change"
      if ! grep -qx '"correct":true' "$scratch/b.change"; then
        echo "NOT CORRECT  $what"
        status=1
      fi
      if [[ -n $p && $parent_perturbs == 0 ]]; then
        echo "correct  $what (parent predates SIM_PERTURB)"
        continue
      fi
      SIM_PERTURB="$p" simulated "$parent" "$workload" "$seed" >"$scratch/b.parent"
      verdict "$what ($(wc -l <"$scratch/b.change") fields)" "$scratch/b.parent" "$scratch/b.change"
    done
  done
done

# 3. The repair_under_load seed sweep.
for side in parent change; do
  "${!side}/tools/seed_sweep.sh" "${quick[@]}" repair_under_load "$sweep_seeds" \
    >"$scratch/sweep.$side" || true
done
verdict "seed_sweep repair_under_load ($(tail -n 1 "$scratch/sweep.change"))" \
  "$scratch/sweep.parent" "$scratch/sweep.change"
grep -q ': \([0-9]*\) of \1 seeds correct' "$scratch/sweep.change" || status=1

if [[ $status == 0 ]]; then echo "same_sim: nothing simulated moved"; else echo "same_sim: FAILED"; fi
exit "$status"
