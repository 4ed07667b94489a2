#!/usr/bin/env bash
# Gate for the benchmark package: formatting, lints, unit tests and every
# workload at 1/20 scale with the oracle and the determinism guard on.
# `check.sh aa` then runs the full untraced set twice and prints each
# end-to-end metric's two values, how much worse the second is, and
# pass/fail against its bound.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
odsbench() { cargo run --release --offline --quiet -- "$@"; }
odsbench --workload all --quick >/dev/null
odsbench --workload all --quick --trace 1 >/dev/null

if [ "${1:-}" = aa ]; then
    mkdir -p out
    odsbench --workload all >out/aa_1.jsonl
    odsbench --workload all >out/aa_2.jsonl
    odsbench --compare out/aa_1.jsonl out/aa_2.jsonl
fi
