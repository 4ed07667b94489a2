#!/usr/bin/env bash
# CI gate: formatting, lints, every workspace test suite, the end-to-end
# benchmark's own gate, and example/bench rot checks.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# --workspace: the root is itself a package, so a bare `cargo test` stops
# at its 15 suites and never reaches the member crates' (pmclient, npmu,
# simnet qos_props, txnkit end_to_end, ...).
cargo test --release --workspace
# The end-to-end benchmark package gates itself: fmt, clippy, its unit
# tests, and all four workloads at 1/20 scale with the power-loss oracle
# and the determinism guard on, traced and untraced.
benchmark/check.sh
cargo build --release --examples
# Smoke: every example runs to completion (under a second together), and
# the ones that assert fail loud — scale_out's 4-volume pool surviving one
# member failure with an online resilver, failover losing no record
# across ADP and PMM primary kills.
for example in examples/*.rs; do
  cargo run --release --example "$(basename "$example" .rs)"
done
# Smoke: durable-write latency by attachment (T1) — asserts internally
# that a mirrored 4 KB PM write costs within 5% of writing one half (the
# legs ride separate fabrics), at least a wire time more with a fabric
# down, and that the bytes split 50:50 across the fabrics.
cargo run --release -p pm-bench --bin t1_latency
# Smoke: partitioned audit scaling (T8) — asserts the ≥ 2× speedup and
# p99 bars internally at smoke scale.
cargo run --release -p pm-bench --bin audit_scaling
# Smoke: windowed, mirror-balanced read path (T9) — error-free matrix run.
cargo run --release -p pm-bench --bin read_scaling
# Smoke: persistence modes (T10) — asserts internally, at smoke scale,
# the honest modes' throughput floor and that the in-chain persist fence
# costs a device flush, not a round trip.
cargo run --release -p pm-bench --bin persist_modes
# Smoke: sharded transaction layer (T11) — asserts the >= 2.5x 4-node
# speedup at 10% cross-shard and the 100k-client population bars
# internally at smoke scale.
cargo run --release -p pm-bench --bin shard_scaling
# Smoke: resilver MTTR (T6) — region size x share of its chunks dirtied
# inside the outage; asserts internally that exactly the dirtied chunks
# are copied in every row and that a 64 MB region with one chunk dirtied
# repairs in <= 80 ms (a scan of what is allocated, a copy of what
# diverged); then a pool-wide outage that dirtied every chunk of a 32 MB
# striped region: the four pairs repair side by side at >= 300 MB/s
# aggregate and the verify ships 8 bytes per chunk digest, no more.
cargo run --release -p pm-bench --bin resilver_mttr
# Smoke: fabric QoS isolation (T12) — hot-stock commits racing the repair
# of an outage that dirtied 24 MiB of scratch chunks; asserts commit p99
# <= 2x uncontended with DRR+admission, resilver >= 80% of its standalone
# rate, and the FIFO baseline's p99 blow-up, all internally.
cargo run --release -p pm-bench --bin qos_isolation
# Smoke: geo-replication failover drill (T14) — asserts internally that
# the drained controls converge to RPO 0 with byte-identical trail
# prefixes, every drill replica is a bit-identical prefix of its
# primary, eager RPO <= lazy below the bandwidth-delay crossover, the
# epoch fence round-trips, and no arm accumulates unbounded backlog.
cargo run --release -p pm-bench --bin georep
# The recovery matrix's whole product: topology x persistence mode x QoS x
# fault, every cell's recovery held to `pmem::oracle` (~3 s in release on
# 2 CPUs). `cargo test --release --workspace` above ran its pairwise
# subset and the crash fuzz's full 2,340-point sweep.
cargo test --release --test recovery_matrix -- --ignored
# The same two under three perturbation seeds (SimConfig::perturb): events
# due at one instant for different actors leave in a seeded order and
# fabric legs take up to 1 ns of seeded jitter — other legal schedules of
# the same model. A failure here is a store bug (the first was a georep
# shipper that re-subscribed to a dead ADP primary; tests/
# perturbed_takeover.rs holds it); fix it, never drop the seed.
for perturb in 1 2 3; do
  SIM_PERTURB=$perturb cargo test --release --test crash_fuzz
  SIM_PERTURB=$perturb cargo test --release --test recovery_matrix -- --ignored
done
# Throughput-regression gate: fresh --json runs vs committed results/.
tools/bench_check.sh
# Rot check for the host-cost A/B tool: one pair of this tree against
# itself (the numbers mean nothing; the build, the parse and the
# simulated-metrics comparison must all still work).
tools/ab_wall.sh . trade_pm 1
# Rot check for the "nothing simulated moved" tool: HEAD against this
# tree in quick mode (one artifact, the benchmark at 1/20 scale, two
# seeds of the sweep, one perturbation seed).
tools/same_sim.sh --quick HEAD 1
# Rot check for the N-seed sweep a commit- or repair-timing change owes
# (40 seeds of repair_under_load): two seeds at 1/20 scale; it fails if
# either seed is not correct.
tools/seed_sweep.sh --quick repair_under_load 2 >/dev/null
# The size and option census every re-anchor used to count by hand. It
# gates nothing; it runs here so the script cannot rot unnoticed.
tools/census.sh
# Rot check for the host-time profiler (frame-pointer build, SIGPROF
# sampler, nm symbolization): it must still find measured-phase samples.
tools/hostprof.sh trade_pm 0x0D5B11 --quick >/dev/null
# Same for its allocation census (malloc wrappers, folded stacks, the
# site filter).
tools/hostprof.sh --alloc trade_pm 0x0D5B11 --quick >/dev/null
# Docs must build clean (broken intra-doc links fail the gate).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
