//! Property-based tests over the durable formats and crash machinery.

use bytes::{Bytes, BytesMut};
use proptest::prelude::*;
use txnkit::audit::{scan, AuditRecord};
use txnkit::types::{PartitionId, TxnId};

fn arb_record() -> impl Strategy<Value = AuditRecord> {
    prop_oneof![
        (
            any::<u64>(),
            0u32..8,
            0u32..8,
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..200)
        )
            .prop_map(|(txn, file, part, key, body)| {
                let crc = pmm::meta::crc32(&body);
                AuditRecord::Insert {
                    txn: TxnId(txn),
                    partition: PartitionId { file, part },
                    key,
                    virtual_len: body.len() as u32,
                    body_crc: crc,
                    body: Bytes::from(body),
                }
            }),
        any::<u64>().prop_map(|t| AuditRecord::Commit { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| AuditRecord::Abort { txn: TxnId(t) }),
        proptest::collection::vec(any::<u64>(), 0..8).prop_map(|v| {
            AuditRecord::CheckpointMark {
                active_txns: v.into_iter().map(TxnId).collect(),
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every audit record round-trips exactly through encode/decode.
    #[test]
    fn audit_record_roundtrip(rec in arb_record()) {
        let enc = rec.encode();
        prop_assert_eq!(enc.len(), rec.encoded_len());
        let (back, used) = AuditRecord::decode(&enc).unwrap();
        prop_assert_eq!(back, rec);
        prop_assert_eq!(used, enc.len());
    }

    /// A trail of any records scans back fully, and any truncation yields
    /// a clean prefix (never garbage records).
    #[test]
    fn audit_trail_scan_prefix_property(
        recs in proptest::collection::vec(arb_record(), 1..20),
        cut_frac in 0.0f64..1.0
    ) {
        let mut trail = BytesMut::new();
        for r in &recs {
            r.encode_into(&mut trail);
        }
        let full = scan(&trail);
        prop_assert_eq!(full.len(), recs.len());
        for ((_, got), want) in full.iter().zip(recs.iter()) {
            prop_assert_eq!(got, want);
        }
        let cut = ((trail.len() as f64) * cut_frac) as usize;
        let truncated = scan(&trail[..cut]);
        prop_assert!(truncated.len() <= recs.len());
        for ((_, got), want) in truncated.iter().zip(recs.iter()) {
            prop_assert_eq!(got, want, "truncated scan must be a prefix");
        }
    }

    /// PMM volume metadata round-trips and survives arbitrary single-slot
    /// corruption via the two-slot scheme.
    #[test]
    fn volume_meta_two_slot_recovery(
        names in proptest::collection::vec("[a-z]{1,12}", 0..6),
        corrupt_at in any::<usize>(),
        flip in any::<u8>()
    ) {
        use pmm::{MetaStore, RegionMeta, VolumeMeta, META_BYTES};
        let mut meta = VolumeMeta {
            epoch: 6,
            next_region_id: names.len() as u64,
            regions: names
                .iter()
                .enumerate()
                .map(|(i, n)| RegionMeta {
                    id: i as u64,
                    name: n.clone(),
                    base: META_BYTES + (i as u64) * 8192,
                    len: 4096,
                    owner_cpu: (i % 4) as u32,
                })
                .collect(),
            health: Default::default(),
            pool: None,
        };
        let mut img = vec![0u8; META_BYTES as usize];
        // Write epoch 6 (slot 0) then epoch 7 (slot 1).
        let e6 = meta.encode();
        img[MetaStore::slot_for_epoch(6) as usize..][..e6.len()].copy_from_slice(&e6);
        meta.epoch = 7;
        let e7 = meta.encode();
        let slot7 = MetaStore::slot_for_epoch(7) as usize;
        img[slot7..][..e7.len()].copy_from_slice(&e7);

        // Corrupt one arbitrary byte of the *newest* slot.
        if !e7.is_empty() && flip != 0 {
            let off = slot7 + (corrupt_at % e7.len());
            img[off] ^= flip;
        }
        let rec = MetaStore::recover(|off, len| img[off as usize..off as usize + len].to_vec());
        // Either the corruption was harmless (recovered epoch 7) or the
        // scheme fell back to epoch 6. Region contents must match one of
        // the two committed states — never garbage.
        prop_assert!(rec.epoch == 7 || rec.epoch == 6, "epoch {}", rec.epoch);
        prop_assert_eq!(rec.regions.len(), meta.regions.len());
    }

    /// Power loss at ANY byte offset inside the 16 B watermark cell
    /// recovers to the previously published watermark — never a garbage
    /// LSN — whichever slot holds it. The double-buffered cell writes the
    /// slot NOT holding the latest valid watermark; the torn slot either
    /// parses (write landed whole) or the survivor wins. The parse is
    /// total: a read of any length, empty included, sees exactly the slots
    /// whose 12 payload bytes it covers.
    #[test]
    fn torn_watermark_cell_recovers_previous_watermark(
        prev_wm in any::<u64>(),
        next_wm in any::<u64>(),
        prev_slot in 0usize..2,
        torn_at in 0usize..17,
        junk in proptest::collection::vec(any::<u8>(), 0..65)
    ) {
        use txnkit::trail::{encode_ctrl_slot, parse_ctrl_cell, PM_CTRL_SLOT_BYTES};
        let next_wm = next_wm | 1; // ensure next != 0 so it is observable
        let prev_wm = prev_wm.min(next_wm - 1);
        let cell_for = |wm: u64| {
            let mut c = [0u8; PM_CTRL_SLOT_BYTES as usize];
            c[..12].copy_from_slice(&encode_ctrl_slot(wm));
            c
        };
        // Start from arbitrary junk (a recycled region), publish prev_wm
        // into slot `prev_slot`, then tear the next publication in the
        // other slot at byte `torn_at`.
        let torn = 1 - prev_slot;
        let read_len = junk.len();
        let mut raw = junk;
        raw.resize(read_len.max(32), 0);
        raw[prev_slot * 16..prev_slot * 16 + 16].copy_from_slice(&cell_for(prev_wm));
        let next = cell_for(next_wm);
        raw[torn * 16..torn * 16 + torn_at].copy_from_slice(&next[..torn_at]);
        let (got, slot) = parse_ctrl_cell(&raw);
        if torn_at == 16 {
            // The write completed: the new watermark must win.
            prop_assert_eq!(got, next_wm);
            prop_assert_eq!(slot, Some(torn));
        } else {
            // Torn: recovery must land on the previous watermark unless
            // the tear accidentally produced valid higher junk — CRC-32
            // over the LSN makes that a non-event, and the survivor slot
            // guarantees we never fall below prev_wm or to garbage < it.
            prop_assert!(got == prev_wm || (got > prev_wm && slot == Some(torn)),
                "parsed {got} (slot {slot:?}), previous {prev_wm}");
            // A torn cell never erases the published watermark.
            prop_assert!(got >= prev_wm);
        }
        // 12 to 27 bytes cover slot 0 alone, survivor or torn.
        let short = parse_ctrl_cell(&raw[..read_len]);
        match (read_len, prev_slot) {
            (0..=11, _) => prop_assert_eq!(short, (0, None)),
            (12..=27, 0) => prop_assert_eq!(short, (prev_wm, Some(0))),
            (12..=27, _) if torn_at >= 12 => prop_assert_eq!(short, (next_wm, Some(0))),
            (12..=27, _) => prop_assert_eq!(short, (0, None)),
            _ => prop_assert_eq!(short, (got, slot)),
        }
    }

    /// The redo transaction is atomic under a crash at any byte budget,
    /// for arbitrary write sets.
    #[test]
    fn pmtx_atomicity_random_writes(
        writes in proptest::collection::vec(
            (4096u64..16_384, proptest::collection::vec(any::<u8>(), 1..64)),
            1..6
        ),
        crash_frac in 0.0f64..1.2
    ) {
        use pmstore::{PmMedium, PmTx, TornWriter, VecMedium};
        // Non-overlapping home offsets: space them out.
        let writes: Vec<(u64, Vec<u8>)> = writes
            .into_iter()
            .enumerate()
            .map(|(i, (_, data))| (4096 + (i as u64) * 128, data))
            .collect();
        let total = {
            let mut m = VecMedium::new(32 << 10);
            let mut tx = PmTx::create(0, 4096);
            let refs: Vec<(u64, &[u8])> =
                writes.iter().map(|(o, d)| (*o, d.as_slice())).collect();
            let before = m.bytes_written;
            tx.run(&mut m, &refs);
            m.bytes_written - before
        };
        let crash_at = ((total as f64) * crash_frac) as u64;
        let mut torn = TornWriter::new(VecMedium::new(32 << 10));
        torn.crash_after(crash_at);
        let mut tx = PmTx::create(0, 4096);
        let refs: Vec<(u64, &[u8])> = writes.iter().map(|(o, d)| (*o, d.as_slice())).collect();
        tx.run(&mut torn, &refs);
        let mut m = torn.into_inner();
        PmTx::recover(&mut m, 0, 4096);
        // All-or-nothing: every home range holds its data, or every home
        // range still reads zero (the medium starts zeroed).
        let homes: Vec<Vec<u8>> = writes
            .iter()
            .map(|(off, data)| m.read(*off, data.len()))
            .collect();
        let all = writes.iter().zip(&homes).all(|((_, data), home)| home == data);
        let none = homes.iter().all(|home| home.iter().all(|&b| b == 0));
        prop_assert!(all || none, "hybrid state: {homes:?} at crash {crash_at}/{total}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Shard routing is a total deterministic function: every key maps to
    /// exactly one shard below the count, for any power-of-two cluster.
    #[test]
    fn shard_routing_total_and_deterministic(key in any::<u64>(), log2 in 0u32..7) {
        use txnkit::shard_of_key;
        let shards = 1u32 << log2;
        let s = shard_of_key(key, shards);
        prop_assert!(s < shards);
        prop_assert_eq!(s, shard_of_key(key, shards), "routing must be stable");
    }

    /// Growing the cluster from `n` to `2n` shards moves a key only where
    /// the mask intends: it either stays on its shard or moves to the new
    /// mirror shard `s + n` — never to an arbitrary third place. (This is
    /// the property that makes doubling a rebalance of at most half the
    /// keyspace, with no shuffling among surviving shards.)
    #[test]
    fn shard_routing_doubling_moves_keys_only_to_the_mirror(
        key in any::<u64>(),
        log2 in 0u32..6
    ) {
        use txnkit::shard_of_key;
        let n = 1u32 << log2;
        let s = shard_of_key(key, n);
        let s2 = shard_of_key(key, 2 * n);
        prop_assert!(
            s2 == s || s2 == s + n,
            "key moved {s} -> {s2} under {n} -> {} growth", 2 * n
        );
        // And shrinking back is exact: the doubled routing collapses onto
        // the original under the smaller mask.
        prop_assert_eq!(s2 % n, s);
    }

    /// Cluster-allocated TxnIds round-trip their (coordinator, sequence)
    /// parts, ids from different coordinator shards never collide, and
    /// `audit_partition` composes with shard-local trail counts: the pair
    /// (coordinator shard, partition index) names one trail globally, so
    /// two shards' transactions can never write the same trail even when
    /// their partition indices coincide.
    #[test]
    fn txn_id_composition_has_no_cross_shard_collisions(
        a in 0u32..64, b in 0u32..64,
        seq_a in 0u64..(1 << 48), seq_b in 0u64..(1 << 48),
        parts in 1usize..8
    ) {
        let ta = TxnId::compose(a, seq_a);
        let tb = TxnId::compose(b, seq_b);
        prop_assert_eq!(ta.coordinator_shard(), a);
        prop_assert_eq!(ta.sequence(), seq_a);
        if a != b {
            prop_assert_ne!(ta, tb, "distinct coordinators must never collide");
            prop_assert_ne!(
                (ta.coordinator_shard(), ta.audit_partition(parts)),
                (tb.coordinator_shard(), tb.audit_partition(parts)),
                "global trail identity must differ across shards"
            );
        }
        prop_assert!(ta.audit_partition(parts) < parts);
        // Shard 0 ids are bit-identical to legacy single-node ids, so old
        // trails decode under the sharded reader.
        prop_assert_eq!(TxnId::compose(0, seq_a), TxnId(seq_a));
    }

    /// Sequential transactions on one shard spread over all its trail
    /// partitions (the golden-ratio mix defeats striding), so no trail
    /// starves regardless of which shard allocated the ids.
    #[test]
    fn sequential_txn_ids_cover_all_audit_partitions(
        shard in 0u32..64,
        base in 0u64..(1 << 40),
        parts in 2usize..8
    ) {
        let mut hit = vec![false; parts];
        for i in 0..256u64 {
            hit[TxnId::compose(shard, base + i).audit_partition(parts)] = true;
        }
        prop_assert!(hit.iter().all(|&h| h), "a partition starved: {hit:?}");
    }
}

#[test]
fn shard_routing_covers_every_shard() {
    use txnkit::shard_of_key;
    for shards in [2u32, 4, 8] {
        let mut hit = vec![0u64; shards as usize];
        for key in 0..4096u64 {
            hit[shard_of_key(key, shards) as usize] += 1;
        }
        let (min, max) = (hit.iter().min().unwrap(), hit.iter().max().unwrap());
        assert!(*min > 0, "{shards}-shard routing starved a shard: {hit:?}");
        assert!(
            *max < 2 * *min,
            "{shards}-shard routing badly skewed: {hit:?}"
        );
    }
}

// ---------------------------------------------------------------------
// The PM trail writer's core under arbitrary completions and takeovers
// ---------------------------------------------------------------------

use simnet::RdmaStatus;
use txnkit::trail::{Completion, Part, TrailCore};

#[derive(Clone, Debug)]
enum TrailOp {
    /// Stage an append of `virt` virtual bytes carrying `len` of them.
    Stage { virt: u64, len: usize },
    /// Post the next chain, if the core cuts one.
    Post,
    /// The chain in flight completes `status`. A failed chain may still
    /// have reached the device: `landed` writes its cell slot's first
    /// `landed` bytes (of 16).
    Complete { status: RdmaStatus, landed: usize },
    /// The re-drive timer fires.
    Redrive,
    /// Takeover: a fresh core boots from the device's cell.
    Boot,
}

fn arb_trail_op() -> impl Strategy<Value = TrailOp> {
    let args = (0u8..10, 1u64..300, 0usize..80, 0u8..16, 0usize..17);
    args.prop_map(|(op, virt, len, status, landed)| match op {
        0..=2 => TrailOp::Stage {
            virt,
            len: len.min(virt as usize),
        },
        3..=4 => TrailOp::Post,
        5..=7 => TrailOp::Complete {
            // Rejections are rarer than the rest: a frozen trail stays so.
            status: match status {
                0..=7 => RdmaStatus::Ok,
                8..=11 => RdmaStatus::DeviceFailed,
                12..=13 => RdmaStatus::Unreachable,
                14 => RdmaStatus::AccessViolation,
                _ => RdmaStatus::OutOfBounds,
            },
            landed,
        },
        8 => TrailOp::Redrive,
        _ => TrailOp::Boot,
    })
}

/// A posted chain's bytes: every part, then the cell.
type ChainBytes = Vec<(u64, Vec<u8>, u32)>;

/// A chain as the host posted it: its bytes, its cell slot, its acks.
type Posted = (ChainBytes, usize, Vec<(u64, u64)>);

fn chain_bytes(parts: &[Part], cell: &Part) -> ChainBytes {
    parts
        .iter()
        .chain([cell])
        .map(|(o, b, w)| (*o, b.to_vec(), *w))
        .collect()
}

/// The watermark one cell slot holds on its own (0 if it is not valid).
fn slot_watermark(cell: &[u8; 32], slot: usize) -> u64 {
    let mut one = [0u8; 32];
    one[..16].copy_from_slice(&cell[slot * 16..slot * 16 + 16]);
    txnkit::trail::watermark(&one)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Over arbitrary interleavings of stages, posts, completions of every
    /// kind, re-drives and takeovers that boot from the device's cell: no
    /// ack is released before a published chain covers it, and none
    /// twice; the watermark never falls; a re-driven chain is the chain
    /// first cut, byte for byte and slot for slot; the slot a chain does
    /// not write holds the last published watermark; nothing is posted
    /// after a rejection.
    #[test]
    fn trail_core_publishes_only_what_completed_chains_cover(
        cap in 64u64..1024,
        ops in proptest::collection::vec(arb_trail_op(), 1..80),
    ) {
        // The device's control cell, and what a published completion put
        // there last.
        let mut device = [0u8; 32];
        let mut published = 0u64;
        let mut core: TrailCore<(u64, u64)> = TrailCore::new(cap);
        // Acks staged and not yet released, the chain in flight as first
        // cut (with its cell slot and its acks), and every ack released.
        let mut owed: Vec<(u64, u64)> = Vec::new();
        let mut inflight: Option<Posted> = None;
        let mut released = std::collections::BTreeSet::new();
        let mut wm = 0u64;
        for op in ops {
            match op {
                TrailOp::Stage { virt, len } => {
                    let start = core.staged_end();
                    prop_assert!(start >= core.durable());
                    core.stage(start, virt, Bytes::from(vec![0xC3; len]), (start, start + virt));
                    owed.push((start, start + virt));
                }
                TrailOp::Post => {
                    let (was_idle, frozen, end) = (inflight.is_none(), core.frozen(), core.staged_end());
                    match core.next_chain() {
                        Some((parts, cell)) => {
                            prop_assert!(was_idle && !frozen, "a chain posted while one is in flight or after a reject");
                            // A slot-sized write at a slot's offset.
                            let slot = (cell.0 / cell.2 as u64) as usize;
                            prop_assert!(slot < 2 && cell.0 % cell.2 as u64 == 0);
                            // The other slot is the last published watermark.
                            prop_assert_eq!(slot_watermark(&device, 1 - slot), published);
                            prop_assert_eq!(txnkit::trail::watermark(&cell.1), end);
                            inflight = Some((chain_bytes(parts, cell), slot, std::mem::take(&mut owed)));
                        }
                        None => prop_assert!(!was_idle || frozen || owed.is_empty()),
                    }
                }
                TrailOp::Complete { status, landed } => {
                    let frozen = core.frozen();
                    let got = core.complete(status);
                    let Some((bytes, slot, acks)) = inflight.clone() else {
                        // A stray completion: it publishes nothing, but a
                        // rejection still freezes the trail.
                        let rejects = matches!(status, RdmaStatus::AccessViolation | RdmaStatus::OutOfBounds);
                        prop_assert!(!matches!(got, Some(Completion::Published(_))));
                        prop_assert_eq!(core.frozen(), frozen || rejects);
                        continue;
                    };
                    let cell = &bytes.last().expect("a cell").1;
                    match got {
                        Some(Completion::Published(w)) => {
                            prop_assert!(!frozen && status == RdmaStatus::Ok);
                            prop_assert!(w >= wm, "the watermark fell from {} to {}", wm, w);
                            wm = w;
                            device[slot * 16..slot * 16 + 12].copy_from_slice(&cell[..12]);
                            published = w;
                            prop_assert_eq!(core.released(), &acks[..]);
                            for &a in core.released() {
                                prop_assert!(a.1 <= w, "ack {:?} released above the watermark {}", a, w);
                                prop_assert!(released.insert(a), "ack {:?} released twice", a);
                            }
                            inflight = None;
                        }
                        Some(Completion::Failed) => {
                            prop_assert!(!frozen);
                            prop_assert!(matches!(status, RdmaStatus::DeviceFailed | RdmaStatus::Unreachable));
                            let n = landed.min(12);
                            device[slot * 16..slot * 16 + n].copy_from_slice(&cell[..n]);
                        }
                        Some(Completion::Rejected) => {
                            prop_assert!(core.frozen());
                            prop_assert!(frozen || matches!(status, RdmaStatus::AccessViolation | RdmaStatus::OutOfBounds));
                        }
                        None => prop_assert!(false, "a chain in flight completed as nothing"),
                    }
                    prop_assert_eq!(core.durable(), wm);
                }
                TrailOp::Redrive => {
                    match (&inflight, core.inflight()) {
                        (Some((bytes, _, _)), Some((parts, cell))) => {
                            prop_assert!(!core.frozen());
                            prop_assert_eq!(&chain_bytes(parts, cell), bytes, "a re-driven chain differs from the chain first cut");
                        }
                        (None, None) => {}
                        (Some(_), None) => prop_assert!(core.frozen(), "the chain in flight vanished"),
                        (None, Some(_)) => prop_assert!(false, "a chain in flight the host never posted"),
                    }
                }
                TrailOp::Boot => {
                    // Whatever the old core had staged or in flight is gone
                    // unacked; the new one starts from the device's cell.
                    let before = published;
                    core = TrailCore::new(cap);
                    let (w, slot) = core.boot(&device);
                    let (a, b) = (slot_watermark(&device, 0), slot_watermark(&device, 1));
                    prop_assert_eq!(w, a.max(b));
                    prop_assert!(w >= before, "boot fell below the published watermark");
                    prop_assert_eq!(slot_watermark(&device, 1 - slot), w);
                    prop_assert_eq!((core.staged_end(), core.durable()), (w, w));
                    published = w;
                    wm = w;
                    owed.clear();
                    inflight = None;
                }
            }
            // Whatever the core exposes as released, a publication covered.
            for a in core.released() {
                prop_assert!(released.contains(a), "ack {:?} released before its chain published", a);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Geo-replication: the replica's batch validator under WAN adversity
// ---------------------------------------------------------------------

use txnkit::georep::{validate_batch, BatchVerdict, ShipBatch};

fn wan_batch(start: u64, end: u64, payload: Vec<u8>, crc: u32) -> ShipBatch {
    ShipBatch {
        partition: 0,
        start_lsn: start,
        end_lsn: end,
        payload: Bytes::from(payload),
        crc,
        reply_to: simcore::ActorId(0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `validate_batch` is total: arbitrary headers, payloads and
    /// watermarks never panic, and `Apply.skip` always leaves a
    /// non-empty in-bounds payload suffix.
    #[test]
    fn georep_validate_batch_is_total(
        applied in any::<u64>(),
        cap in any::<u64>(),
        start in any::<u64>(),
        end in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        crc in any::<u32>(),
    ) {
        let b = wan_batch(start, end, payload, crc);
        if let BatchVerdict::Apply { skip } = validate_batch(applied, cap, &b) {
            prop_assert!(skip < b.payload.len() as u64);
            prop_assert_eq!(b.end_lsn - b.start_lsn, b.payload.len() as u64);
        }
    }

    /// Any single bit flip — header field or payload byte — of a valid
    /// batch is rejected (`Corrupt`/`Stale`/`Gap`), never applied as-is:
    /// the only way a flipped batch can still classify `Apply` is a
    /// payload-preserving header flip that still satisfies every
    /// invariant, which the CRC + span + length checks exclude.
    #[test]
    fn georep_bit_flipped_batch_never_applies_damage(
        applied in 0u64..10_000,
        span in 1u64..200,
        payload_seed in any::<u64>(),
        flip in 0usize..1_000_000,
    ) {
        let cap = 1u64 << 20;
        let payload: Vec<u8> =
            (0..span).map(|i| (payload_seed.wrapping_mul(i + 1) >> 13) as u8).collect();
        let crc = pmm::meta::crc32(&payload);
        let good = wan_batch(applied, applied + span, payload.clone(), crc);
        prop_assert_eq!(validate_batch(applied, cap, &good), BatchVerdict::Apply { skip: 0 });

        // Flip one bit somewhere in (start, end, crc, payload).
        let mut start = good.start_lsn;
        let mut end = good.end_lsn;
        let mut crc2 = good.crc;
        let mut pay = payload;
        let nbits = 64 + 64 + 32 + pay.len() * 8;
        let at = flip % nbits;
        if at < 64 {
            start ^= 1u64 << at;
        } else if at < 128 {
            end ^= 1u64 << (at - 64);
        } else if at < 160 {
            crc2 ^= 1u32 << (at - 128);
        } else {
            let bit = at - 160;
            pay[bit / 8] ^= 1u8 << (bit % 8);
        }
        let evil = wan_batch(start, end, pay, crc2);
        // A header flip can still describe a *different* valid span;
        // payload and CRC are untouched then, so the bytes written
        // are the bytes shipped — not damage. A payload/CRC flip
        // must never apply.
        if let BatchVerdict::Apply { .. } = validate_batch(applied, cap, &evil) {
            prop_assert!(at < 128, "payload/crc flip applied");
            prop_assert_eq!(evil.end_lsn - evil.start_lsn, evil.payload.len() as u64);
            prop_assert_eq!(pmm::meta::crc32(&evil.payload), evil.crc);
        }
    }

    /// Truncated payloads (the classic partial-delivery failure) are
    /// always `Corrupt` — never a partial apply.
    #[test]
    fn georep_truncated_batch_is_corrupt(
        applied in 0u64..10_000,
        span in 2u64..200,
        cut in 1u64..200,
        payload_seed in any::<u64>(),
    ) {
        let cut = cut.min(span - 1).max(1);
        let cap = 1u64 << 20;
        let payload: Vec<u8> =
            (0..span).map(|i| (payload_seed.wrapping_mul(i + 1) >> 7) as u8).collect();
        let crc = pmm::meta::crc32(&payload);
        let trunc = wan_batch(applied, applied + span, payload[..(span - cut) as usize].to_vec(), crc);
        prop_assert_eq!(validate_batch(applied, cap, &trunc), BatchVerdict::Corrupt);
    }

    /// Model of the replica apply loop: the watermark only ever moves by
    /// fully-validated contiguous extension — duplicates, gaps and
    /// corruption leave it exactly where it was.
    #[test]
    fn georep_watermark_moves_only_on_valid_apply(
        batches in proptest::collection::vec(
            (0u64..500, 1u64..100, any::<bool>(), any::<u8>()), 1..40),
    ) {
        let cap = 1u64 << 16;
        let mut applied = 0u64;
        for (start, span, damage, noise) in batches {
            let payload: Vec<u8> = (0..span).map(|i| (i as u8).wrapping_add(noise)).collect();
            let crc = if damage {
                pmm::meta::crc32(&payload) ^ 1
            } else {
                pmm::meta::crc32(&payload)
            };
            let b = wan_batch(start, start + span, payload, crc);
            let before = applied;
            match validate_batch(applied, cap, &b) {
                BatchVerdict::Apply { skip } => {
                    prop_assert!(!damage);
                    prop_assert!(b.start_lsn <= before && before < b.end_lsn);
                    prop_assert_eq!(skip, before - b.start_lsn);
                    applied = b.end_lsn;
                    prop_assert!(applied > before);
                }
                BatchVerdict::Stale => {
                    prop_assert!(!damage && b.end_lsn <= before);
                    prop_assert_eq!(applied, before);
                }
                BatchVerdict::Gap => {
                    prop_assert!(!damage && b.start_lsn > before);
                    prop_assert_eq!(applied, before);
                }
                BatchVerdict::Corrupt => prop_assert_eq!(applied, before),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Recovery: one node is the one-shard cluster
// ---------------------------------------------------------------------

/// Transaction ids from a domain small enough that outcome records meet
/// the inserts they decide, with coordinators on this shard (0) and on
/// shards a one-shard recovery has no trail for.
fn arb_small_txn() -> impl Strategy<Value = TxnId> {
    (0u32..3, 0u64..8).prop_map(|(shard, seq)| TxnId::compose(shard, seq))
}

fn arb_outcome_mix_record() -> impl Strategy<Value = AuditRecord> {
    prop_oneof![
        (arb_small_txn(), 0u32..2, 0u64..6, any::<u32>()).prop_map(|(txn, part, key, crc)| {
            AuditRecord::Insert {
                txn,
                partition: PartitionId { file: 0, part },
                key,
                virtual_len: 64,
                body_crc: crc,
                body: Bytes::new(),
            }
        }),
        arb_small_txn().prop_map(|txn| AuditRecord::Commit { txn }),
        arb_small_txn().prop_map(|txn| AuditRecord::Abort { txn }),
        arb_small_txn().prop_map(|txn| AuditRecord::Prepared { txn }),
        proptest::collection::vec(arb_small_txn(), 0..4)
            .prop_map(|active_txns| AuditRecord::CheckpointMark { active_txns }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `redo_scan_sharded` over one shard and `redo_scan_partitioned` run
    /// the same merge and the same redo; what the sharded pass adds —
    /// in-doubt resolution, a per-shard `committed` narrowed to the
    /// transactions that touched the shard — never changes what is redone.
    #[test]
    fn one_shard_recovery_redoes_what_partitioned_recovery_redoes(
        trails in proptest::collection::vec(
            proptest::collection::vec(arb_outcome_mix_record(), 0..12),
            1..5,
        ),
        torn in 0usize..24,
    ) {
        use txnkit::recovery::{redo_scan_partitioned, redo_scan_sharded};
        let mut images: Vec<Vec<u8>> = trails
            .iter()
            .map(|recs| {
                let mut b = BytesMut::new();
                for r in recs {
                    r.encode_into(&mut b);
                }
                b.to_vec()
            })
            .collect();
        // A torn tail on the last trail: a record cut short mid-write.
        let tail = AuditRecord::Commit { txn: TxnId(1) }.encode();
        images
            .last_mut()
            .unwrap()
            .extend_from_slice(&tail[..torn.min(tail.len() - 1)]);
        let refs: Vec<&[u8]> = images.iter().map(|t| t.as_slice()).collect();

        let node = redo_scan_partitioned(&refs);
        let sharded = redo_scan_sharded(std::slice::from_ref(&refs));
        let shard = &sharded.shards[0];
        prop_assert_eq!(&shard.tables, &node.tables);
        prop_assert!(shard.committed.is_subset(&node.committed));
        prop_assert_eq!(shard.records_scanned, node.records_scanned);
        prop_assert_eq!(shard.bytes_scanned, node.bytes_scanned);
        prop_assert_eq!(
            node.records_scanned as usize,
            trails.iter().map(|t| t.len()).sum::<usize>(),
            "the torn tail is not a record"
        );
    }
}

/// The reference the streaming recovery is held to: each window read
/// whole into a `Vec` (`scan_window`), the `Vec`s merged by
/// `(Lsn, partition)`, and the one merged history folded into outcome sets
/// and redone.
mod reference {
    use std::collections::{BTreeMap, HashMap, HashSet};
    use txnkit::audit::{scan_window, AuditRecord, Window};
    use txnkit::dp2::StoredRecord;
    use txnkit::types::{Lsn, PartitionId, TxnId};

    pub type Tables = HashMap<PartitionId, BTreeMap<u64, StoredRecord>>;

    /// One node's windows, read and merged.
    pub struct Node {
        pub merged: Vec<AuditRecord>,
        pub wrote: HashSet<TxnId>,
        pub prepared: HashSet<TxnId>,
        pub committed: HashSet<TxnId>,
        pub aborted: HashSet<TxnId>,
    }

    pub fn node(windows: &[Window<'_>]) -> Node {
        // Within a window LSNs strictly increase, so a sort by
        // `(Lsn, partition)` is the k-way merge.
        let mut all: Vec<(Lsn, usize, AuditRecord)> = Vec::new();
        for (i, &w) in windows.iter().enumerate() {
            all.extend(scan_window(w).records.into_iter().map(|(l, r)| (l, i, r)));
        }
        all.sort_by_key(|&(lsn, i, _)| (lsn, i));
        let merged: Vec<AuditRecord> = all.into_iter().map(|(_, _, r)| r).collect();
        let of = |want: fn(&AuditRecord) -> Option<TxnId>| merged.iter().filter_map(want).collect();
        Node {
            wrote: of(|r| match r {
                AuditRecord::Insert { txn, .. } => Some(*txn),
                _ => None,
            }),
            prepared: of(|r| match r {
                AuditRecord::Prepared { txn } => Some(*txn),
                _ => None,
            }),
            committed: of(|r| match r {
                AuditRecord::Commit { txn } => Some(*txn),
                _ => None,
            }),
            aborted: of(|r| match r {
                AuditRecord::Abort { txn } => Some(*txn),
                _ => None,
            }),
            merged,
        }
    }

    /// The inserts of `committed` transactions, replayed in merge order.
    pub fn redo(node: &Node, committed: impl Fn(&TxnId) -> bool) -> Tables {
        let mut tables = Tables::new();
        for r in &node.merged {
            if let AuditRecord::Insert {
                txn,
                partition,
                key,
                virtual_len,
                body_crc,
                ..
            } = r
            {
                if committed(txn) {
                    let at = tables.entry(*partition).or_default();
                    at.insert(
                        *key,
                        StoredRecord {
                            virtual_len: *virtual_len,
                            crc: *body_crc,
                        },
                    );
                }
            }
        }
        tables
    }
}

/// One partition's trail: each record after `gap` zero bytes, laid out
/// from LSN 0, then `torn` bytes of a record cut short. Only encoded bytes
/// are written: on a ring of `cap` bytes, LSN `l` at offset `l mod cap`,
/// a lap leaves older bytes in the gaps. Returns the window recovery
/// reads ([`txnkit::audit::ring_window`]): `(base, bytes)`.
fn laid_out(recs: &[(AuditRecord, usize)], torn: &[u8], cap: u64) -> (u64, Vec<u8>) {
    let mut writes: Vec<(u64, Bytes)> = Vec::new();
    let mut lsn = 0u64;
    for (rec, gap) in recs {
        lsn += *gap as u64;
        let enc = rec.encode();
        let len = enc.len() as u64;
        writes.push((lsn, enc));
        lsn += len;
    }
    writes.push((lsn, Bytes::copy_from_slice(torn)));
    let watermark = lsn + torn.len() as u64;
    let mut ring = vec![0u8; cap.min(watermark) as usize];
    for (at, bytes) in writes {
        for (i, b) in bytes.iter().enumerate() {
            ring[((at + i as u64) % cap) as usize] = *b;
        }
    }
    let (base, window) = txnkit::audit::ring_window(&ring, watermark, cap);
    (base, window.into_owned())
}

fn arb_partition() -> impl Strategy<Value = Vec<(AuditRecord, usize)>> {
    proptest::collection::vec((arb_outcome_mix_record(), 0usize..18), 0..14)
}

proptest! {
    // Many cases: an LSN tie across partitions that rewrite one key is
    // what catches a merge with the wrong tiebreak, and it is rare.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The streaming recovery — windows read one record at a time, merged
    /// lazily, twice — redoes exactly what the reference redoes from
    /// whole decoded histories: the same key rewritten across partitions
    /// ends with the same winner, zero gaps of every length and alignment
    /// are passed over, a torn tail stops (or, lapped, is skipped) alike.
    #[test]
    fn streaming_recovery_redoes_what_a_materialized_history_redoes(
        parts in proptest::collection::vec(arb_partition(), 1..5),
        torn in 0usize..24,
        lap in 0.3f64..1.6,
    ) {
        use txnkit::audit::Window;
        use txnkit::recovery::{redo_scan_partitioned, redo_windows_sharded};
        // Below 1, the share of its trail a ring holds: it laps.
        let lap = (lap < 1.0).then_some(lap);
        let tail = AuditRecord::Commit { txn: TxnId(1) }.encode();
        let cut = &tail[..torn.min(tail.len() - 1)];
        let last = parts.len() - 1;
        let laid: Vec<(u64, Vec<u8>)> = parts
            .iter()
            .enumerate()
            .map(|(i, recs)| {
                let torn = if i == last { cut } else { &[][..] };
                let (_, whole) = laid_out(recs, torn, u64::MAX);
                // A ring `lap` of the trail long laps it once or more.
                let cap = lap.map_or(u64::MAX, |f| ((whole.len() as f64 * f) as u64).max(1));
                laid_out(recs, torn, cap)
            })
            .collect();
        let windows: Vec<Window<'_>> = laid
            .iter()
            .map(|(base, bytes)| Window { base: *base, bytes })
            .collect();
        let want = reference::node(&windows);
        let bytes: u64 = windows.iter().map(|w| w.bytes.len() as u64).sum();

        // One shard: every field of its recovered state.
        let sharded = redo_windows_sharded(std::slice::from_ref(&windows));
        let shard = &sharded.shards[0];
        prop_assert_eq!(&shard.tables, &reference::redo(&want, |t| sharded.committed.contains(t)));
        prop_assert_eq!(&shard.aborted, &want.aborted);
        prop_assert_eq!(shard.records_scanned, want.merged.len() as u64);
        prop_assert_eq!(shard.bytes_scanned, bytes);
        let touched = |t: &&TxnId| want.wrote.contains(t) || want.prepared.contains(t);
        let committed = sharded.committed.iter().filter(touched).copied().collect();
        prop_assert_eq!(&shard.committed, &committed);

        // Unlapped trails read from LSN 0: the node recovery, whole.
        if lap.is_none() {
            let refs: Vec<&[u8]> = laid.iter().map(|(_, b)| b.as_slice()).collect();
            let node = redo_scan_partitioned(&refs);
            prop_assert_eq!(&node.tables, &reference::redo(&want, |t| want.committed.contains(t)));
            prop_assert_eq!(&node.committed, &want.committed);
            prop_assert_eq!(&node.aborted, &want.aborted);
            let open = |t: &&TxnId| !want.committed.contains(t) && !want.aborted.contains(t);
            let inflight = want.wrote.union(&want.prepared).filter(open).copied().collect();
            prop_assert_eq!(&node.inflight, &inflight);
            prop_assert_eq!(node.records_scanned, want.merged.len() as u64);
            prop_assert_eq!(node.bytes_scanned, bytes);
        }
    }
}

/// Scheduled fabric ports: a leg served when it is issued (a grant) must
/// leave exactly when the arbiter alone would have served it. Random legs
/// from a few initiators to two or three device ports, under DRR and FIFO:
/// an initiator's transmit backlog delays its later legs, so a leg issued
/// later often arrives first and takes an earlier grant back. One device
/// is killed mid-run and restarted on the same endpoint, so a grant whose
/// delivery died with its target is taken back too.
mod scheduled_ports {
    use simcore::actor::Start;
    use simcore::{Actor, ActorId, Ctx, Msg, Shared, Sim, SimConfig, SimDuration};
    use simnet::qos::PortScheduler;
    use simnet::{
        latency, send_net_msg_class, EndpointId, FabricConfig, NetDelivery, Network, QosConfig,
        SharedNetwork, TrafficClass,
    };

    #[derive(Clone, Copy, Debug)]
    pub struct Leg {
        pub from: usize,
        pub to: usize,
        pub issue_ns: u64,
        pub bytes: u32,
        pub class: TrafficClass,
    }

    /// `(leg, delivered at, receiving actor)`, pooled over every device.
    type Log = Shared<Vec<(usize, u64, ActorId)>>;

    struct Device {
        log: Log,
    }
    impl Actor for Device {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if let Ok((_, d)) = msg.take::<NetDelivery>() {
                let leg = *d.payload.downcast::<usize>().expect("a leg index");
                self.log
                    .lock()
                    .push((leg, ctx.now().as_nanos(), ctx.self_id()));
            }
        }
    }

    struct Go(usize);
    struct Initiator {
        net: SharedNetwork,
        ep: EndpointId,
        devices: Vec<EndpointId>,
        legs: Vec<Leg>,
    }
    impl Actor for Initiator {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if let Ok((_, Go(i))) = msg.take::<Go>() {
                let leg = self.legs[i];
                let to = self.devices[leg.to];
                let net = self.net.clone();
                assert!(send_net_msg_class(
                    ctx, &net, self.ep, to, leg.bytes, leg.class, i
                ));
            }
        }
    }

    /// Kills the device on `ep` and restarts it on the same endpoint.
    struct Restart;
    struct Restarter {
        net: SharedNetwork,
        ep: EndpointId,
        log: Log,
    }
    impl Actor for Restarter {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                return;
            }
            let old = self.net.lock().actor_of(self.ep).expect("bound");
            ctx.kill(old);
            let new = ctx.spawn(Box::new(Device {
                log: self.log.clone(),
            }));
            self.net.lock().rebind(self.ep, new);
        }
    }

    pub fn cfg() -> FabricConfig {
        FabricConfig {
            jitter_frac: 0.0,
            ..FabricConfig::default()
        }
    }

    /// Runs `legs` from `initiators` endpoints to `ports` devices, device
    /// `killed.0` restarted at `killed.1` ns. Returns the delivery log and
    /// the actor each device started as.
    pub fn simulate(
        qos: QosConfig,
        initiators: usize,
        ports: usize,
        legs: &[Leg],
        killed: (usize, u64),
    ) -> (Vec<(usize, u64, ActorId)>, Vec<ActorId>) {
        let mut sim = Sim::new(SimConfig {
            seed: 1,
            perturb: None,
            ..SimConfig::default()
        });
        let net = Network::with_qos(cfg(), qos);
        let log = Log::new(Vec::new());
        let mut devices = Vec::new();
        let mut first = Vec::new();
        for _ in 0..ports {
            let a = sim.spawn(Device { log: log.clone() });
            devices.push(net.lock().attach(a));
            first.push(a);
        }
        let mut actors = Vec::new();
        for _ in 0..initiators {
            let ep = net.lock().attach(ActorId(u32::MAX));
            let a = sim.spawn(Initiator {
                net: net.clone(),
                ep,
                devices: devices.clone(),
                legs: legs.to_vec(),
            });
            net.lock().rebind(ep, a);
            actors.push(a);
        }
        let restarter = sim.spawn(Restarter {
            net: net.clone(),
            ep: devices[killed.0],
            log: log.clone(),
        });
        sim.post(restarter, SimDuration::from_nanos(killed.1), Restart);
        for (i, leg) in legs.iter().enumerate() {
            sim.post(
                actors[leg.from],
                SimDuration::from_nanos(leg.issue_ns),
                Go(i),
            );
        }
        sim.run_until_idle();
        let out = log.lock().clone();
        (out, first)
    }

    /// The reference: each leg reaches its port when its initiator's
    /// transmit port has sent it; each port's legs, in order of arrival
    /// and then of issue, go through a [`PortScheduler`] that serves one
    /// segment at a time for its wire time; a leg is delivered the target
    /// NIC's time after its last segment. `None` when a leg arrives at
    /// the very instant its port frees with work queued: which of the two
    /// goes first is decided by schedule draws the reference does not
    /// model.
    pub fn reference(qos: QosConfig, legs: &[Leg]) -> Option<Vec<u64>> {
        let cfg = cfg();
        let mut order: Vec<usize> = (0..legs.len()).collect();
        order.sort_by_key(|&i| (legs[i].issue_ns, i));
        let mut tx_busy = vec![0u64; legs.iter().map(|l| l.from + 1).max().unwrap_or(0)];
        let mut arrive = vec![(0u64, 0usize); legs.len()];
        for (rank, &i) in order.iter().enumerate() {
            let leg = legs[i];
            let at = tx_busy[leg.from].max(leg.issue_ns + cfg.sw_overhead_ns);
            tx_busy[leg.from] = at + latency::wire_ns(&cfg, leg.bytes);
            arrive[i] = (at, rank);
        }
        let mut done = vec![0u64; legs.len()];
        for port in 0..legs.iter().map(|l| l.to + 1).max().unwrap_or(0) {
            let mut mine: Vec<usize> = (0..legs.len()).filter(|&i| legs[i].to == port).collect();
            mine.sort_by_key(|&i| arrive[i]);
            let mut sched = PortScheduler::new(qos.policy, qos.quantum_bytes);
            let (mut busy, mut next) = (0u64, 0usize);
            let mut serve = |sched: &mut PortScheduler<usize>, at: u64, busy: &mut u64| {
                let seg = sched.next_segment(at).expect("work queued");
                *busy = at + latency::wire_ns(&cfg, seg.bytes as u32);
                if let Some(i) = seg.done {
                    done[i] = *busy + cfg.target_nic_ns;
                }
            };
            loop {
                let arrival = mine.get(next).map(|&i| arrive[i].0);
                let frees = (!sched.is_empty()).then_some(busy);
                match (arrival, frees) {
                    (None, None) => break,
                    (Some(a), Some(f)) if a == f => return None,
                    (Some(a), f) if f.is_none_or(|f| a < f) => {
                        let leg = legs[mine[next]];
                        sched.enqueue(leg.class, leg.bytes.max(1) as u64, a, mine[next]);
                        next += 1;
                        if busy <= a {
                            serve(&mut sched, a, &mut busy);
                        }
                    }
                    (_, f) => serve(&mut sched, f.expect("port busy"), &mut busy),
                }
            }
        }
        Some(done)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every leg is delivered when the reference says, under DRR and FIFO
    /// alike; a leg to the killed device is delivered only if that comes
    /// before the kill.
    #[test]
    fn granted_and_arbitrated_legs_leave_when_a_lone_arbiter_would_serve_them(
        ports in 2usize..4,
        raw in proptest::collection::vec(
            (0usize..6, 0usize..3, 0u64..150_000, prop_oneof![1u32..8192, 8192u32..90_000], 0usize..3),
            4..24,
        ),
        killed in (0usize..3, 0u64..150_000),
    ) {
        use scheduled_ports::{reference, simulate, Leg};
        use simnet::{QosConfig, TrafficClass};
        // One leg per (initiator, port): an initiator's second leg to a
        // port would arrive the instant its first one left the port, a
        // tie the reference cannot order (see `reference`).
        let mut pairs = std::collections::HashSet::new();
        let legs: Vec<Leg> = raw
            .iter()
            .filter(|&&(from, to, ..)| pairs.insert((from, to % ports)))
            .map(|&(from, to, t, bytes, class)| Leg {
                from,
                to: to % ports,
                // Even issue instants, an odd kill instant: no leg is
                // issued in the instant its device restarts.
                issue_ns: 2 * t,
                bytes,
                class: TrafficClass::ALL[class],
            })
            .collect();
        let killed = (killed.0 % ports, 2 * killed.1 + 1);
        for qos in [QosConfig::drr(1.0), QosConfig::fifo()] {
            let Some(want) = reference(qos, &legs) else {
                continue;
            };
            let (log, first) = simulate(qos, 6, ports, &legs, killed);
            for (i, leg) in legs.iter().enumerate() {
                let got: Vec<_> = log.iter().filter(|e| e.0 == i).collect();
                let dead = leg.to == killed.0 && leg.issue_ns < killed.1;
                if dead && want[i] > killed.1 {
                    prop_assert!(got.is_empty(), "leg {i} reached a killed device: {got:?}");
                    continue;
                }
                if dead && want[i] == killed.1 {
                    continue;
                }
                prop_assert_eq!(got.len(), 1, "leg {} ({:?}) delivered {:?}", i, leg, got);
                prop_assert_eq!(got[0].1, want[i], "leg {} ({:?}) under {:?}", i, leg, qos.policy);
                prop_assert_eq!(got[0].2 == first[leg.to], dead || leg.to != killed.0);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Two-phase commit: both machines under random interleavings
// ---------------------------------------------------------------------

/// A model of the TMFs hosting `txnkit::twopc`'s machines for one
/// cross-shard transaction: shard 0 coordinates, every other shard takes
/// part. Each shard has a data trail holding the transaction's insert and
/// a master trail, each a list of records of which a prefix is durable;
/// the network is a bag of messages that are delivered in any order,
/// duplicated or lost. A host does what `tmf::TmfProc` does with the
/// machines' outputs, minus the sends' timing; `nsk::requests::Requests`
/// is the real table of sub-operations, its timers fired at random.
mod twopc_model {
    use bytes::{Bytes, BytesMut};
    use nsk::pair::{Died, PairCore, Role};
    use nsk::requests::{Backoff, Requests, Retry};
    use simcore::hash::FastMap;
    use simcore::SimDuration;
    use txnkit::audit::AuditRecord;
    use txnkit::recovery::redo_scan_sharded;
    use txnkit::twopc::{Answer, Coordinator, Out, Owner, Participant, SubKind};
    use txnkit::types::{Lsn, PartitionId, TxnId};

    pub const TXN: TxnId = TxnId(7);

    #[derive(Default)]
    struct Trail {
        recs: Vec<AuditRecord>,
        durable: usize,
    }

    impl Trail {
        fn holds(&self, rec: &AuditRecord) -> bool {
            self.recs[..self.durable].contains(rec)
        }
    }

    #[derive(Clone, Debug)]
    enum Msg {
        /// To shard `at`'s master trail, from its TMF.
        Append {
            at: usize,
            rec: AuditRecord,
            token: u64,
        },
        /// To a trail of shard `at` (`data`, or its master trail).
        Flush {
            at: usize,
            data: bool,
            upto: u64,
            token: u64,
        },
        AppendDone {
            to: usize,
            token: u64,
            covers: bool,
            end: u64,
        },
        FlushDone {
            to: usize,
            token: u64,
        },
        Prepare {
            to: usize,
            token: u64,
            flush_points: Vec<(String, Lsn)>,
            dp2: Vec<String>,
        },
        Vote {
            token: u64,
        },
        Decision {
            to: usize,
            token: u64,
        },
        DecisionAck {
            token: u64,
        },
    }

    /// The timers are fired by the schedule, not by a clock.
    const BACKOFF: Backoff = Backoff::new(
        SimDuration::from_millis(900),
        SimDuration::from_millis(7_200),
    );

    struct Tmf {
        alive: bool,
        subs: Requests<(Owner, SubKind), ()>,
        /// Every token this TMF registered, for the retry picker.
        issued: Vec<u64>,
        coord: Option<Coordinator>,
        part: Option<Participant>,
        /// The outcome this shard's DP2s were told.
        resolved: Option<bool>,
    }

    pub struct World {
        data: Vec<Trail>,
        master: Vec<Trail>,
        tmfs: Vec<Tmf>,
        net: Vec<Msg>,
        pair: PairCore<u64>,
        /// The decision checkpoint's seq, once it left (acks may repeat).
        ckpt: Option<u64>,
        backup: bool,
        pub externalized: u32,
        pub deaths: u32,
    }

    fn insert(shard: usize) -> AuditRecord {
        let body = Bytes::from_static(b"row");
        AuditRecord::Insert {
            txn: TXN,
            partition: PartitionId {
                file: shard as u32,
                part: 0,
            },
            key: shard as u64,
            virtual_len: body.len() as u32,
            body_crc: pmm::meta::crc32(&body),
            body,
        }
    }

    impl World {
        /// `shards` shards (shard 0 coordinates); bit `s` of `flushed`:
        /// shard `s`'s insert was durable at its ack, so the commit carries
        /// no flush point there.
        pub fn new(shards: usize, flushed: u8, backup: bool) -> World {
            let mut w = World {
                data: Vec::new(),
                master: (0..shards).map(|_| Trail::default()).collect(),
                tmfs: Vec::new(),
                net: Vec::new(),
                pair: PairCore::new(Role::Primary),
                ckpt: None,
                backup,
                externalized: 0,
                deaths: 0,
            };
            let mut flush_points = Vec::new();
            for s in 0..shards {
                let durable = usize::from(flushed & (1 << s) != 0);
                w.data.push(Trail {
                    recs: vec![insert(s)],
                    durable,
                });
                flush_points.push((durable == 0).then(|| (format!("d{s}"), Lsn(1))));
                w.tmfs.push(Tmf {
                    alive: true,
                    subs: Requests::new(Role::Primary, BACKOFF),
                    issued: Vec::new(),
                    coord: None,
                    part: None,
                    resolved: None,
                });
            }
            let remote = (1..shards)
                .map(|s| {
                    (
                        s as u32,
                        (
                            flush_points[s].iter().cloned().collect(),
                            vec![format!("p{s}")],
                        ),
                    )
                })
                .collect::<FastMap<_, _>>();
            let local = flush_points[0].iter().cloned().collect();
            let mut outs = Vec::new();
            let c = Coordinator::new(
                TXN,
                local,
                vec!["p0".into()],
                remote,
                true,
                backup,
                &mut outs,
            );
            w.tmfs[0].coord = Some(c);
            w.run(0, Owner::coordinator(0, TXN), outs);
            w
        }

        fn shard_of(adp: &str) -> usize {
            adp[1..].parse().unwrap()
        }

        /// Carry out shard `at`'s machine outputs as `tmf::TmfProc::run`
        /// does, checking rules 1 and 2 where they apply.
        fn run(&mut self, at: usize, owner: Owner, outs: Vec<Out>) {
            for out in outs {
                match out {
                    Out::Sub(kind) => {
                        let tmf = &mut self.tmfs[at];
                        let token = tmf.subs.token();
                        tmf.subs.issue(token, (owner, kind), |_, _| ());
                        tmf.issued.push(token);
                        self.send_sub(at, token);
                    }
                    Out::Checkpoint => {
                        if self.backup {
                            self.ckpt = Some(self.pair.park(0));
                        }
                    }
                    Out::Externalize => {
                        // Rule 2: only after its own record and every
                        // participant's `Prepared` record are durable.
                        assert!(
                            self.master[0].holds(&AuditRecord::Commit { txn: TXN }),
                            "externalized before the commit record is durable"
                        );
                        for s in 1..self.master.len() {
                            assert!(
                                self.master[s].holds(&AuditRecord::Prepared { txn: TXN }),
                                "externalized before shard {s}'s Prepared record is durable"
                            );
                        }
                        self.externalized += 1;
                        assert_eq!(self.externalized, 1, "externalized twice");
                        self.tmfs[0].coord = None;
                    }
                    Out::Vote => {
                        let token = self.tmfs[at].part.as_ref().unwrap().coord_token;
                        self.net.push(Msg::Vote { token });
                    }
                    Out::Record { committed } => {
                        let rec = if committed {
                            AuditRecord::Commit { txn: TXN }
                        } else {
                            AuditRecord::Abort { txn: TXN }
                        };
                        let token = self.tmfs[at].subs.token();
                        self.net.push(Msg::Append { at, rec, token });
                    }
                    Out::Resolve { committed, .. } => {
                        // Rule 1: no participant resolves committed before
                        // the coordinator's commit record is durable.
                        if committed && at != 0 {
                            assert!(
                                self.master[0].holds(&AuditRecord::Commit { txn: TXN }),
                                "shard {at} resolved committed before the commit record is durable"
                            );
                        }
                        self.tmfs[at].resolved = Some(committed);
                    }
                }
            }
        }

        /// Send (or re-send) sub-operation `token` of shard `at`.
        fn send_sub(&mut self, at: usize, token: u64) {
            let Some((owner, kind)) = self.tmfs[at].subs.get(token) else {
                return;
            };
            let msg = match kind {
                SubKind::Flush { adp, upto } => Msg::Flush {
                    at: Self::shard_of(adp),
                    data: true,
                    upto: upto.0,
                    token,
                },
                SubKind::Harden { flush: None } => {
                    let rec = match owner.commit {
                        Some(_) => AuditRecord::Commit { txn: TXN },
                        None => AuditRecord::Prepared { txn: TXN },
                    };
                    Msg::Append { at, rec, token }
                }
                SubKind::Harden { flush: Some(upto) } => Msg::Flush {
                    at,
                    data: false,
                    upto: upto.0,
                    token,
                },
                SubKind::Prepare { peer, work } => Msg::Prepare {
                    to: *peer as usize,
                    token,
                    flush_points: work.0.clone(),
                    dp2: work.1.clone(),
                },
                SubKind::Decision { peer } => Msg::Decision {
                    to: *peer as usize,
                    token,
                },
            };
            self.net.push(msg);
        }

        /// An answer reaches shard `to`'s TMF: retire the token, and hand
        /// it to its owner as `TmfProc::answered` does.
        fn answered(&mut self, to: usize, token: u64, answer: Answer) {
            let tmf = &mut self.tmfs[to];
            let Some((owner, kind)) = tmf.subs.answer(token, |()| ()) else {
                return;
            };
            let mut outs = Vec::new();
            match (owner.commit, &mut tmf.coord, &mut tmf.part) {
                (Some(_), Some(c), _) => c.answered(&kind, answer, self.backup, &mut outs),
                (None, _, Some(p)) => p.answered(&kind, answer, &mut outs),
                _ => {}
            }
            self.run(to, owner, outs);
        }

        fn ckpt_done(&mut self) {
            let mut outs = Vec::new();
            if let Some(c) = &mut self.tmfs[0].coord {
                c.ckpt_done(&mut outs);
            }
            self.run(0, Owner::coordinator(0, TXN), outs);
        }

        /// Deliver `msg`; an append's ack covers it if `covers`.
        fn deliver(&mut self, msg: Msg, covers: bool) {
            let to = match msg {
                Msg::Append { at, .. } | Msg::Flush { at, .. } => at,
                Msg::AppendDone { to, .. } | Msg::FlushDone { to, .. } => to,
                Msg::Prepare { to, .. } | Msg::Decision { to, .. } => to,
                Msg::Vote { .. } | Msg::DecisionAck { .. } => 0,
            };
            let is_adp = matches!(msg, Msg::Append { .. } | Msg::Flush { .. });
            if !is_adp && !self.tmfs[to].alive {
                return;
            }
            match msg {
                Msg::Append { at, rec, token } => {
                    let trail = &mut self.master[at];
                    trail.recs.push(rec);
                    if covers {
                        trail.durable = trail.recs.len();
                    }
                    let end = trail.recs.len() as u64;
                    let covers = trail.durable as u64 >= end;
                    self.net.push(Msg::AppendDone {
                        to: at,
                        token,
                        covers,
                        end,
                    });
                }
                Msg::Flush {
                    at,
                    data,
                    upto,
                    token,
                } => {
                    let trail = if data {
                        &mut self.data[at]
                    } else {
                        &mut self.master[at]
                    };
                    trail.durable = trail.durable.max(upto as usize);
                    // The flush is answered by the TMF that asked: a
                    // data flush of another shard's trail is never asked.
                    self.net.push(Msg::FlushDone { to: at, token });
                }
                Msg::AppendDone {
                    to,
                    token,
                    covers,
                    end,
                } => self.answered(
                    to,
                    token,
                    Answer::Appended {
                        covers,
                        end: Lsn(end),
                    },
                ),
                Msg::FlushDone { to, token } => self.answered(to, token, Answer::Flushed),
                Msg::Vote { token } => self.answered(0, token, Answer::Voted),
                Msg::DecisionAck { token } => self.answered(0, token, Answer::DecisionAcked),
                Msg::Prepare {
                    to,
                    token,
                    flush_points,
                    dp2,
                } => {
                    let tmf = &mut self.tmfs[to];
                    if let Some(p) = &mut tmf.part {
                        if p.again("c".into(), token) {
                            self.net.push(Msg::Vote { token });
                        }
                        return;
                    }
                    let mut outs = Vec::new();
                    tmf.part = Some(Participant::new(
                        "c".into(),
                        token,
                        flush_points,
                        dp2,
                        true,
                        &mut outs,
                    ));
                    self.run(to, Owner::participant(TXN), outs);
                }
                Msg::Decision { to, token } => {
                    if let Some(p) = self.tmfs[to].part.take() {
                        let mut outs = Vec::new();
                        p.decided(true, &mut outs);
                        self.run(to, Owner::participant(TXN), outs);
                    }
                    self.net.push(Msg::DecisionAck { token });
                }
            }
        }

        /// One step of the schedule: `op` picks the kind, `pick` the
        /// message, shard or token, `flag` the variant.
        pub fn step(&mut self, op: u8, pick: usize, flag: bool) {
            let shards = self.tmfs.len();
            match op {
                // Deliver a message — and keep a copy in flight: a duplicate.
                0..=5 if !self.net.is_empty() => {
                    let i = pick % self.net.len();
                    let msg = if op == 5 {
                        self.net[i].clone()
                    } else {
                        self.net.swap_remove(i)
                    };
                    self.deliver(msg, flag);
                }
                // A message lost to a takeover.
                6 if !self.net.is_empty() => {
                    let i = pick % self.net.len();
                    self.net.swap_remove(i);
                }
                // A retry timer fires: an unanswered sub-operation is
                // re-sent and re-armed.
                7 | 8 => {
                    let at = pick % shards;
                    let tmf = &self.tmfs[at];
                    if tmf.alive && !tmf.issued.is_empty() {
                        let token = tmf.issued[pick / shards % tmf.issued.len()];
                        if tmf.subs.get(token).is_some() {
                            self.send_sub(at, token);
                            self.tmfs[at].subs.rearm(Retry { token }, |_, _| ());
                        }
                    }
                }
                // A trail becomes durable by someone else's flush.
                9 => {
                    let trail = if flag {
                        &mut self.data[pick % shards]
                    } else {
                        &mut self.master[pick % shards]
                    };
                    trail.durable = trail.recs.len();
                }
                // The backup acks the decision checkpoint — again, a
                // duplicate; after its death, a late ack — or dies.
                10 if flag && self.ckpt.and_then(|seq| self.pair.acked(seq)).is_some() => {
                    self.ckpt_done();
                }
                10 if !flag && self.backup => {
                    self.backup = false;
                    let Died::BackupLost(waiters) = self.pair.died(false) else {
                        panic!("a primary's backup died");
                    };
                    for _ in waiters {
                        self.ckpt_done();
                    }
                }
                // A coordinator's or a participant's TMF dies for good.
                11 if pick.is_multiple_of(16) => {
                    let tmf = &mut self.tmfs[pick / 16 % shards];
                    if tmf.alive {
                        tmf.alive = false;
                        tmf.coord = None;
                        tmf.part = None;
                        self.deaths += 1;
                    }
                }
                _ => {}
            }
        }

        /// Rule 3 at this cut: the durable records, resolved by
        /// `redo_scan_sharded`, resolve the transaction one way on every
        /// shard — all of its inserts redone or none — and as committed if
        /// the client was told so.
        pub fn check_cut(&self) {
            let images: Vec<Vec<Vec<u8>>> = (0..self.tmfs.len())
                .map(|s| {
                    [&self.data[s], &self.master[s]]
                        .iter()
                        .map(|t| {
                            let mut b = BytesMut::new();
                            t.recs[..t.durable]
                                .iter()
                                .for_each(|r| r.encode_into(&mut b));
                            b.to_vec()
                        })
                        .collect()
                })
                .collect();
            let refs: Vec<Vec<&[u8]>> = images
                .iter()
                .map(|s| s.iter().map(|t| t.as_slice()).collect())
                .collect();
            let rec = redo_scan_sharded(&refs);
            let committed = rec.committed.contains(&TXN);
            assert!(
                !(committed && rec.aborted.contains(&TXN)),
                "resolved both ways"
            );
            if self.externalized > 0 {
                assert!(
                    committed,
                    "the client was told committed, recovery says not"
                );
            }
            for (s, shard) in rec.shards.iter().enumerate() {
                let part = PartitionId {
                    file: s as u32,
                    part: 0,
                };
                let redone = shard
                    .tables
                    .get(&part)
                    .is_some_and(|t| t.contains_key(&(s as u64)));
                assert_eq!(
                    redone, committed,
                    "shard {s} redoes {redone}, the transaction committed: {committed}"
                );
            }
        }

        /// With no death, run the schedule out: deliver everything (acks
        /// covering), ack the checkpoint and fire every retry until
        /// nothing is left. Then the commit is externalized, every shard
        /// resolved committed, and no sub-operation is left unanswered.
        pub fn drain(&mut self) {
            for _ in 0..10_000 {
                if let Some(msg) = self.net.pop() {
                    self.deliver(msg, true);
                } else if let Some(seq) = self.ckpt.take() {
                    if self.pair.acked(seq).is_some() {
                        self.ckpt_done();
                    }
                } else {
                    let live: Vec<_> = self.live().collect();
                    if live.is_empty() {
                        break;
                    }
                    for (at, token) in live {
                        if self.tmfs[at].subs.get(token).is_some() {
                            self.send_sub(at, token);
                            self.tmfs[at].subs.rearm(Retry { token }, |_, _| ());
                        }
                    }
                }
                self.check_cut();
            }
            assert_eq!(self.externalized, 1, "never externalized");
            for (s, tmf) in self.tmfs.iter().enumerate() {
                // (A prepare re-driven across the vote and delivered after
                // the decision prepares the shard again, for good: the
                // participant holds no memory of decided transactions.)
                assert_eq!(tmf.resolved, Some(true), "shard {s} never resolved");
            }
            assert!(
                self.live().next().is_none(),
                "a sub-operation was never answered"
            );
        }

        fn live(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
            let tables = self.tmfs.iter().enumerate();
            tables.flat_map(|(s, tmf)| tmf.subs.live().into_iter().map(move |(t, _)| (s, t)))
        }
    }
}

/// A model of one requester over `nsk::requests::Requests`: it issues
/// requests, its timers fire in due order on a model clock and it re-sends
/// what the table hands back, answers come back once, twice, late or not
/// at all, and its primary dies and is succeeded by its promoted backup,
/// whose table is fresh — while answers meant for the dead one still
/// arrive.
mod requests_model {
    use nsk::pair::Role;
    use nsk::requests::{Backoff, Requests, Retry};
    use simcore::SimDuration;
    use std::collections::BTreeMap;

    const BACKOFF: Backoff = Backoff::new(
        SimDuration::from_millis(900),
        SimDuration::from_millis(7_200),
    );

    /// What the model knows of one token of the live incarnation.
    #[derive(Default)]
    struct Token {
        /// The request it was issued with.
        req: u64,
        /// Timers armed for it so far, the first at issue.
        arms: u32,
        /// Times the requester re-sent it.
        resends: u32,
        /// Answers the table released for it.
        released: u32,
    }

    pub struct World {
        table: Requests<u64, u64>,
        role: Role,
        /// Timers armed and not disarmed, by handle: `(due ns, token)`.
        timers: BTreeMap<u64, (u64, u64)>,
        next_timer: u64,
        now: u64,
        mine: BTreeMap<u64, Token>,
        /// Tokens an earlier incarnation issued.
        stale: Vec<u64>,
        next_req: u64,
    }

    impl World {
        pub fn new() -> World {
            World {
                table: Requests::new(Role::Primary, BACKOFF),
                role: Role::Primary,
                timers: BTreeMap::new(),
                next_timer: 0,
                now: 0,
                mine: BTreeMap::new(),
                stale: Vec::new(),
                next_req: 0,
            }
        }

        /// A timer the table armed for `token`, `delay` out: rule 4, the
        /// k-th arm of a request waits the backoff's k-th delay, and it is
        /// armed at issue and after each re-send only.
        fn armed(&mut self, handle: u64, (delay, token): (SimDuration, u64)) {
            let t = self
                .mine
                .get_mut(&token)
                .expect("armed for a token it issued");
            assert_eq!(t.arms, t.resends, "armed without a re-send");
            assert_eq!(
                delay,
                BACKOFF.delay(t.arms),
                "arm {} of token {token}",
                t.arms
            );
            t.arms += 1;
            self.timers
                .insert(handle, (self.now + delay.as_nanos(), token));
        }

        fn live(&self) -> Vec<u64> {
            self.table.live().into_iter().map(|(t, _)| t).collect()
        }

        /// An answer naming `token` arrives (`stale`: meant for a dead
        /// incarnation): it releases the request only the first time, and
        /// only to the incarnation that issued it.
        fn answer(&mut self, token: u64, stale: bool) {
            let before = self.live();
            let mut disarmed = None;
            let got = self.table.answer(token, |h| disarmed = Some(h));
            if stale {
                // Rule 3: a stale answer retires nothing.
                assert_eq!(got, None, "a stale answer released a request");
                assert_eq!(before, self.live(), "a stale answer retired a request");
                return;
            }
            let t = self
                .mine
                .get_mut(&token)
                .expect("an answer to a token it issued");
            let Some(req) = got else {
                assert!(t.released > 0, "a first answer found nothing");
                return;
            };
            // Rule 2: no answer is released twice.
            assert_eq!(t.released, 0, "token {token} released twice");
            assert_eq!(req, t.req);
            t.released += 1;
            let handle = disarmed.expect("the answer disarmed nothing");
            assert_eq!(self.timers.remove(&handle).map(|(_, t)| t), Some(token));
        }

        /// One step: `op` picks the kind, `pick` the token.
        pub fn step(&mut self, op: u8, pick: usize) {
            let mine: Vec<u64> = self.mine.keys().copied().collect();
            match op {
                // Issue a request.
                0 | 1 => {
                    let (token, req, handle) = (self.table.token(), self.next_req, self.next_timer);
                    self.next_req += 1;
                    self.next_timer += 1;
                    let t = Token {
                        req,
                        ..Token::default()
                    };
                    self.mine.insert(token, t);
                    let mut armed = None;
                    self.table.issue(token, req, |d, r| {
                        armed = Some((d, r.token));
                        handle
                    });
                    self.armed(handle, armed.expect("issue armed nothing"));
                }
                // Answer an unanswered request.
                2 => {
                    let live = self.table.live();
                    if let Some(&(token, _)) = live.get(pick % live.len().max(1)) {
                        self.answer(token, false);
                    }
                }
                // Answer any token this incarnation issued: a duplicate
                // or a late answer if it was answered already.
                3 if !mine.is_empty() => self.answer(mine[pick % mine.len()], false),
                // An answer meant for a dead incarnation.
                4 if !self.stale.is_empty() => {
                    self.answer(self.stale[pick % self.stale.len()], true);
                }
                // The next timer fires: rule 1, an unanswered request is
                // handed back, re-sent and re-armed.
                5 | 6 => {
                    let Some((&handle, &(due, token))) =
                        self.timers.iter().min_by_key(|(&h, &(due, _))| (due, h))
                    else {
                        return;
                    };
                    self.timers.remove(&handle);
                    self.now = due;
                    let t = self.mine.get_mut(&token).expect("a timer of its own");
                    let req = self.table.get(token).copied();
                    assert_eq!(req, Some(t.req), "a live request's timer found no request");
                    t.resends += 1;
                    let handle = self.next_timer;
                    self.next_timer += 1;
                    let mut armed = None;
                    self.table.rearm(Retry { token }, |d, r| {
                        armed = Some((d, r.token));
                        handle
                    });
                    self.armed(handle, armed.expect("a re-send was not re-armed"));
                }
                // A timer message naming an answered request finds nothing
                // to re-send, and arms nothing.
                7 => {
                    let answered = mine.iter().filter(|t| self.mine[t].released > 0);
                    if let Some(&token) = answered.clone().nth(pick % answered.count().max(1)) {
                        assert_eq!(self.table.get(token), None, "an answered request");
                        let retry = Retry { token };
                        self.table
                            .rearm(retry, |_, _| panic!("re-armed an answered request"));
                    }
                }
                // The primary dies; its promoted backup starts a fresh
                // table, and the dead primary's timers die with it.
                8 if self.role == Role::Primary => {
                    self.role = Role::Backup;
                    self.table = Requests::new(Role::Backup, BACKOFF);
                    self.stale
                        .extend(std::mem::take(&mut self.mine).into_keys());
                    self.timers.clear();
                }
                _ => {}
            }
            self.check();
        }

        /// Rule 1 at every step: a request is answered once, or it is
        /// live with exactly one timer standing over it.
        fn check(&self) {
            let live = self.live();
            let unanswered: Vec<u64> = (self.mine.iter())
                .filter(|(_, t)| t.released == 0)
                .map(|(&token, _)| token)
                .collect();
            assert_eq!(live, unanswered, "live requests");
            for &token in &live {
                let standing = self.timers.values().filter(|&&(_, t)| t == token).count();
                assert_eq!(standing, 1, "timers standing over live token {token}");
            }
            assert_eq!(
                self.timers.len(),
                live.len(),
                "a timer outlived its request"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Both 2PC machines, through random interleavings of votes,
    /// decisions and their acks, covering and non-covering append acks,
    /// flushes, retries, duplicate, late and lost messages, `BackupLost`
    /// and the death of a coordinator or a participant, keep three rules:
    /// (1) no participant resolves committed before the coordinator's
    /// commit record is durable; (2) the coordinator externalizes once,
    /// after its own record and every participant's `Prepared` record are
    /// durable; (3) at every cut, recovery resolves the transaction one
    /// way on every shard, and as committed if the client was told so.
    /// Without a death, the schedule then runs out to every shard
    /// resolved.
    #[test]
    fn two_phase_commit_keeps_its_three_rules(
        shards in 2usize..5,
        flushed in any::<u8>(),
        backup in any::<bool>(),
        schedule in proptest::collection::vec((0u8..12, any::<u16>(), any::<bool>()), 0..240),
    ) {
        let mut w = twopc_model::World::new(shards, flushed, backup);
        w.check_cut();
        for (op, pick, flag) in schedule {
            w.step(op, pick as usize, flag);
            w.check_cut();
        }
        if w.deaths == 0 {
            w.drain();
        }
    }

    /// One requester's table of requests in flight, through random
    /// issues, answers (first, duplicate and late), answers meant for a
    /// dead primary, timers firing in due order and a takeover, keeps four
    /// rules: (1) every request is answered once, or it is live with one
    /// timer standing, and a fired timer hands it back to be re-sent and
    /// re-armed; (2) no answer is released twice; (3) a stale answer never
    /// retires a newer request; (4) the k-th timer armed for a request,
    /// each after a re-send, waits the backoff's k-th delay.
    #[test]
    fn requests_are_answered_once_or_resent(
        schedule in proptest::collection::vec((0u8..9, any::<u16>()), 0..200),
    ) {
        let mut w = requests_model::World::new();
        for (op, pick) in schedule {
            w.step(op, pick as usize);
        }
    }
}
