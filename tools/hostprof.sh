#!/usr/bin/env bash
# Where the simulator's host time goes, on a box without `perf`:
#
#   tools/hostprof.sh <workload> [seed [benchmark args...]]
#
# Builds `benchmark/` with frame pointers and debuginfo into
# target/hostprof (nothing under `benchmark/` is written), runs the
# workload untraced under tools/hostprof.c — a SIGPROF sampler loaded
# with LD_PRELOAD — and prints the top functions by self and by inclusive
# samples of the measured phase: samples under `harness::run_rep` and
# outside `harness::set_up`, inside `Sim::run_until` (the measured slices
# `wall_s` is made of; the oracle after them is left out). Inclusive
# counts only frames from `Sim::run_until` down. Frames in shared
# libraries are counted under the library's name (`@libc.so.6` is mostly
# malloc, free and memcpy); such a frame hides its immediate caller, as
# libc keeps no frame pointers. HOSTPROF_HZ sets the sampling rate
# (default 1000/s of CPU), TOP the rows per table (default 25).
set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 <workload> [seed [benchmark args...]]" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
workload="$1"
seed="${2:-0x0D5B11}"
shift $(($# < 2 ? $# : 2))
out="$root/target/hostprof"
mkdir -p "$out"

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=true \
  cargo build --release --offline --locked --quiet \
  --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$out"
cc -O2 -shared -fPIC -o "$out/hostprof.so" "$root/tools/hostprof.c"
bin="$out/release/odsbench"
(cd "$out" && HOSTPROF_OUT="$out/samples.txt" LD_PRELOAD="$out/hostprof.so" \
  "$bin" --workload "$workload" --seed "$seed" --trace 0 "$@" >/dev/null)

# Text symbols by decimal address, demangled, without the `::h<hash>` tail.
nm -C -n -t d --defined-only "$bin" | awk '$2 ~ /^[tTwW]$/' |
  sed -E 's/::h[0-9a-f]{16}$//' >"$out/syms.txt"

awk -v top="${TOP:-25}" '
  NR == FNR { addr[n] = $1 + 0; $1 = ""; $2 = ""; name[n++] = substr($0, 3); next }
  function sym(tok,   lo, hi, mid, a) {
    if (substr(tok, 1, 1) == "@") return tok
    a = tok + 0; lo = 0; hi = n - 1
    if (n == 0 || a < addr[0]) return "?"
    while (lo < hi) { mid = int((lo + hi + 1) / 2); if (addr[mid] <= a) lo = mid; else hi = mid - 1 }
    return name[lo]
  }
  {
    total++
    delete seen; run = 0; setup = 0; slice = 0
    for (i = 1; i <= NF; i++) {
      s = sym($i); frame[i] = s
      if (s ~ /^simcore::sim::Sim::run_until$/ && !slice) slice = i
      if (s ~ /harness::run_rep$/) run = 1
      if (s ~ /harness::set_up$/) setup = 1
    }
    if (!run || setup || !slice) next
    measured++
    self[frame[1]]++
    for (i = 1; i <= slice; i++) if (!(frame[i] in seen)) { seen[frame[i]] = 1; incl[frame[i]]++ }
  }
  function report(title, tab,   s, best, b, shown) {
    printf "== %s (%% of %d measured-phase samples)\n", title, measured
    for (shown = 0; shown < top; shown++) {
      best = -1
      for (s in tab) if (tab[s] > best) { best = tab[s]; b = s }
      if (best < 0) break
      printf "%6.1f%%  %s\n", 100 * best / measured, b
      delete tab[b]
    }
  }
  END {
    printf "%d samples, %d in the measured phase\n", total, measured
    if (measured == 0) { print "no measured-phase samples: are the harness symbols still there?" > "/dev/stderr"; exit 1 }
    report("self", self)
    report("inclusive", incl)
  }
' "$out/syms.txt" "$out/samples.txt"
