#!/usr/bin/env bash
# The numbers every ROADMAP re-anchor counts by hand, printed. No gate:
# ci.sh runs this so the script itself cannot rot, and CHANGES.md quotes
# its output at the parent and at the change so "fewer paths, flags and
# lines" is a diff of two printouts.
#
#   tools/census.sh [checkout]      (default: this repository)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

lines() { # total lines of the *.rs files under the given directories
  { find "$@" -name '*.rs' -type f -print0 2>/dev/null | xargs -0 -r cat; } | wc -l
}

echo "== first-party Rust lines"
printf '%-28s %6d\n' "crates/*/src + src" "$(lines crates/*/src src)"
printf '%-28s %6d\n' "tests + crates/*/tests" "$(lines tests crates/*/tests)"
printf '%-28s %6d\n' "examples" "$(lines examples)"
printf '%-28s %6d\n' "benchmark/src" "$(lines benchmark/src)"

echo "== src lines per crate (crates/<name>/src, unit tests included)"
for src in crates/*/src; do
  name="${src#crates/}"
  printf '%-28s %6d\n' "${name%/src}" "$(lines "$src")"
done | sort -k2,2nr -k1,1

echo "== largest non-test files"
find crates/*/src src -name '*.rs' ! -name 'tests.rs' -type f -print0 | xargs -0 wc -l |
  grep -v ' total$' | sort -rn | head -8 | awk '{ printf "%-28s %6d\n", $2, $1 }'

echo "== public fields per *Config / *Params struct"
find crates/*/src src -name '*.rs' -type f -print0 | xargs -0 awk '
  /^pub struct [A-Za-z0-9]+(Config|Params)( |<|\{)/ { name = $3; sub(/[<{].*/, "", name); n = 0; next }
  name != "" && /^    pub [a-z_0-9]+:/ { n++ }
  name != "" && /^}/ { printf "%-28s %6d\n", name, n; name = "" }
' | sort -k2,2nr -k1,1

echo "== *Stats structs"
grep -rhoE '^pub struct [A-Za-z0-9]+Stats\b' crates/*/src src | wc -l

echo "== process pairs"
printf '%-28s %6d\n' "enum Role under crates/" \
  "$({ grep -rhE '^\s*(pub(\([a-z]+\))? )?enum Role\b' crates --include='*.rs' || true; } | wc -l)"
# Lines in the server files naming the pair protocol's plumbing.
printf '%-28s %6d\n' "pair plumbing in servers" \
  "$(cat crates/txnkit/src/{dp2,tmf}.rs crates/txnkit/src/adp/*.rs crates/pmm/src/manager.rs |
    { grep -cE 'ProcessDied|CheckpointAck|Checkpoint \{|promote_backup|resolve_backup|send_to_backup|WatchTarget::Process' || true; })"

# Recovery checks that bypass `pmem::oracle`: what stays calls the scan
# for its own sake (the two-scan equivalence property, T3's timed redo).
echo "== redo_scan_* calls under tests/ + crates/bench/src"
{ grep -rhoE 'redo_scan_[a-z_]+\(' tests crates/bench/src || true; } | wc -l

# Device images keep their bytes in one page store (`simcore::pages`):
# a map from a page or block number to its bytes is a second copy of it.
echo "== sparse block stores (maps from a block number to its bytes)"
{ grep -rhoE '(FastMap|BTreeMap|HashMap)<u64, (Box<\[u8|Page>)' crates/*/src src || true; } | wc -l

# The PM trail's format (control cell, ring split) has one home,
# `txnkit::trail`: every other use of its names is code that knows the
# format by itself. Counted per use, with the files that have any.
echo "== trail-format knowers outside txnkit::trail"
knowers() {
  { grep -roE 'PM_CTRL_BYTES|PM_CTRL_SLOT_BYTES|encode_ctrl_slot|parse_ctrl_cell|split_trail_parts' \
    crates/*/src src tests --include='*.rs' 2>/dev/null || true; } |
    cut -d: -f1 | grep -vx 'crates/txnkit/src/trail\.rs' | sort | uniq -c
}
printf '%-28s %6d\n' "uses" "$(knowers | awk '{ n += $1 } END { print n + 0 }')"
knowers | awk '{ printf "  %-32s %6d\n", $2, $1 }'

# The commit protocol: the TMF and its 2PC machines (`txnkit::twopc`,
# where present), each file counted above its `#[cfg(test)]`, and the
# kinds of sub-operation the TMF sends and re-drives (`enum SubKind`).
echo "== commit protocol"
protocol=$(for f in crates/txnkit/src/{tmf,twopc}.rs; do if [[ -f $f ]]; then echo "$f"; fi; done)
printf '%-28s %6d\n' "tmf.rs + twopc.rs non-test" \
  "$(for f in $protocol; do awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"; done |
    awk '{ n += $1 } END { print n + 0 }')"
printf '%-28s %6d\n' "sub-operation kinds" \
  "$(awk '/^(pub )?enum SubKind/ { on = 1; next } on && /^}/ { on = 0 } on && /^    [A-Z]/ { n++ }
    END { print n + 0 }' $protocol)"

# Re-drive is written once, in `nsk::requests`: a timer type of its own
# that re-sends or re-drives outside `nsk` is that loop written again.
echo "== retry/re-drive timer types outside nsk"
redrivers() {
  find crates/*/src src -name '*.rs' ! -name 'tests.rs' ! -path 'crates/nsk/*' -type f -print0 |
    xargs -0 grep -hoE '^(pub(\([a-z]+\))? )?struct [A-Za-z0-9]*(Retry|Redrive)[A-Za-z0-9]*' |
    awk '{ print $NF }' | sort
}
printf '%-28s %6d\n' "types" "$(redrivers | wc -l)"
redrivers | awk '{ printf "  %s\n", $1 }'

echo "== crates/bench bins"
find crates/bench/src/bin -name '*.rs' -type f | wc -l

echo "== unwrap / expect / panic! sites under crates/*/src"
grep -rhoE '\.unwrap\(\)|\.expect\(|panic!\(' crates/*/src | wc -l
