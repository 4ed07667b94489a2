#!/usr/bin/env bash
# Where the simulator's host time — or its allocations — go, on a box
# without `perf`:
#
#   tools/hostprof.sh [--alloc] <workload> [seed [benchmark args...]]
#
# Builds `benchmark/` with frame pointers and debuginfo into
# target/hostprof (nothing under `benchmark/` is written) and runs the
# workload untraced under tools/hostprof.c, loaded with LD_PRELOAD.
#
# By default that is a SIGPROF sampler, and the report is the top
# functions by self and by inclusive samples of the measured phase:
# samples under `harness::run_rep` and outside `harness::set_up`, inside
# `Sim::run_until` (the measured slices `wall_s` is made of; the oracle
# after them is left out). Inclusive counts only frames from
# `Sim::run_until` down. Frames in shared libraries are counted under the
# library's name (`@libc.so.6` is mostly malloc, free and memcpy); such a
# frame hides its immediate caller, as libc keeps no frame pointers.
# HOSTPROF_HZ sets the sampling rate (default 1000/s of CPU).
#
# With --alloc it is an allocation census instead: every 7th call of
# malloc, calloc, realloc or posix_memalign is sampled, and the report
# is the top allocation sites of the same measured phase. A site is the first frame outside `alloc`, `core`, `std`,
# `hashbrown`, `bytes` and the allocator shims, shown with its caller.
#
# TOP sets the rows per table (default 25).
set -euo pipefail

mode=time
if [[ "${1:-}" == --alloc ]]; then
  mode=alloc
  shift
fi
if [[ $# -lt 1 ]]; then
  echo "usage: $0 [--alloc] <workload> [seed [benchmark args...]]" >&2
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
if [[ $mode == alloc ]]; then
  so="$out/hostprof_alloc.so"
  cc -O2 -shared -fPIC -fno-omit-frame-pointer -DHOSTPROF_ALLOC -o "$so" "$root/tools/hostprof.c"
else
  so="$out/hostprof.so"
  cc -O2 -shared -fPIC -o "$so" "$root/tools/hostprof.c"
fi
bin="$out/release/odsbench"
samples="$out/samples_$mode.txt"
(cd "$out" && HOSTPROF_OUT="$samples" LD_PRELOAD="$so" \
  "$bin" --workload "$workload" --seed "$seed" --trace 0 "$@" >/dev/null)

# Text symbols by decimal address, demangled, without the `::h<hash>` tail.
nm -C -n -t d --defined-only "$bin" | awk '$2 ~ /^[tTwW]$/' |
  sed -E 's/::h[0-9a-f]{16}$//' >"$out/syms.txt"

awk -v top="${TOP:-25}" -v mode="$mode" '
  NR == FNR { addr[n] = $1 + 0; $1 = ""; $2 = ""; name[n++] = substr($0, 3); next }
  function sym(tok,   lo, hi, mid, a) {
    if (substr(tok, 1, 1) == "@") return tok
    a = tok + 0; lo = 0; hi = n - 1
    if (n == 0 || a < addr[0]) return "?"
    while (lo < hi) { mid = int((lo + hi + 1) / 2); if (addr[mid] <= a) lo = mid; else hi = mid - 1 }
    return name[lo]
  }
  # Not an allocation site: the allocator, the standard library and the
  # collections it is reached through, and frames without a symbol.
  function plumbing(s) {
    return s ~ /^<?(alloc|core|std|hashbrown|bytes)::/ || s ~ /^__r(ust|dl|g)_/ ||
      s ~ / as core::alloc::global::GlobalAlloc>/ || s ~ /^[@?]/
  }
  {
    # A time sample weighs 1; a census line starts with its sample count.
    first = 1; weight = 1
    if (mode == "alloc") { first = 2; weight = $1 }
    total += weight
    delete seen; run = 0; setup = 0; slice = 0; depth = 0
    for (i = first; i <= NF; i++) {
      s = sym($i); frame[++depth] = s
      if (s ~ /^simcore::sim::Sim::run_until$/ && !slice) slice = depth
      if (s ~ /harness::run_rep$/) run = 1
      if (s ~ /harness::set_up$/) setup = 1
    }
    if (!run || setup || !slice) next
    measured += weight
    if (mode == "alloc") {
      for (i = 1; i < depth && plumbing(frame[i]); i++) {}
      site[frame[i] "  <-  " frame[i + 1]] += weight
      next
    }
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
    if (mode == "alloc") { report("allocation sites  <-  their callers", site); exit }
    report("self", self)
    report("inclusive", incl)
  }
' "$out/syms.txt" "$samples"
