//! Property tests for the two-slot shadow metadata scheme (`pmm::meta`):
//! under ANY sequence of epoch writes where each write may tear at an
//! arbitrary byte prefix, recovery always adopts the highest epoch whose
//! slot write completed — byte-for-byte, never a torn or stale mixture.

use pmm::meta::{HealthState, MetaStore, RegionMeta, VolumeMeta, META_BYTES, SLOT_BYTES};
use pmpool::{PoolMeta, PoolRegionMeta, StripeMap};
use proptest::prelude::*;

/// The deterministic metadata the PMM "would have written" at `epoch`.
/// Every epoch produces a different body (region count, lengths, health
/// and pool trailer all vary), so a torn mixture of two epochs can never
/// masquerade as either.
fn meta_at(epoch: u64) -> VolumeMeta {
    let n = (epoch % 8) as usize + 1;
    let regions = (0..n)
        .map(|i| RegionMeta {
            id: i as u64 + 1,
            name: format!("r{epoch}.{i}"),
            base: (META_BYTES + (i as u64)) << 20,
            len: ((epoch * 37 + i as u64) % 5 + 1) << 12,
            owner_cpu: (i % 4) as u32,
        })
        .collect();
    let health = match epoch % 3 {
        0 => HealthState::Healthy,
        1 => HealthState::Degraded {
            half: (epoch % 2) as u8,
            since_epoch: epoch,
            dirty_upto: epoch << 16,
        },
        _ => HealthState::Resilvering {
            half: (epoch % 2) as u8,
            since_epoch: epoch,
            dirty_upto: epoch << 16,
            pass: (epoch % 4) as u32,
        },
    };
    let pool = epoch.is_multiple_of(2).then(|| PoolMeta {
        epoch,
        next_region_id: epoch + 1,
        regions: vec![PoolRegionMeta {
            id: 1,
            name: format!("pool-r{epoch}"),
            len: 1 << 20,
            owner_cpu: 0,
            map: StripeMap::solo((epoch % 4) as u32, META_BYTES, 1 << 20),
        }],
    });
    VolumeMeta {
        epoch,
        next_region_id: epoch + 1,
        regions,
        health,
        pool,
    }
}

/// One slot write in the generated history: `None` completes, `Some(pct)`
/// tears after `pct`% of the encoded image (clamped to a strict prefix).
type Op = Option<u8>;

fn arb_history() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![Just(None::<u8>), (1u8..100).prop_map(Some)],
        1..14,
    )
}

/// Apply the history to a blank device image and compute the byte-level
/// ground truth: the highest epoch whose FULL encoded image is present in
/// its slot afterwards. That is the only sound spec — a torn write whose
/// unwritten tail happens to coincide with the slot's previous contents
/// (same encoded length, matching suffix) legitimately reconstitutes a
/// complete newer image, and recovery is right to adopt it.
fn apply(history: &[Op]) -> (Vec<u8>, Option<u64>) {
    let mut img = vec![0u8; META_BYTES as usize];
    for (i, op) in history.iter().enumerate() {
        let epoch = i as u64 + 1;
        let enc = meta_at(epoch).encode();
        let written = match op {
            None => enc.len(),
            Some(pct) => (enc.len() * *pct as usize / 100).clamp(1, enc.len() - 1),
        };
        let slot = MetaStore::slot_for_epoch(epoch) as usize;
        img[slot..slot + written].copy_from_slice(&enc[..written]);
    }
    let mut best = None;
    for epoch in (1..=history.len() as u64).rev() {
        let enc = meta_at(epoch).encode();
        let slot = MetaStore::slot_for_epoch(epoch) as usize;
        if img[slot..slot + enc.len()] == enc[..] {
            best = Some(epoch);
            break;
        }
    }
    (img, best)
}

/// Regression for a subtle case the weighted model got wrong: epoch 10
/// tears at 232/250 bytes over a slot whose previous occupant (epoch 2)
/// also encoded to 250 bytes with an identical 18-byte suffix — the torn
/// write reconstitutes a complete, CRC-valid epoch-10 image, and recovery
/// rightly adopts it.
#[test]
fn torn_tail_coinciding_with_old_bytes_is_a_complete_image() {
    let history: Vec<Op> = vec![
        None,
        None,
        Some(82),
        Some(5),
        None,
        Some(33),
        None,
        Some(93),
        Some(36),
        Some(93),
        Some(50),
    ];
    let (img, best) = apply(&history);
    assert_eq!(best, Some(10));
    let rec = MetaStore::recover(|off, len| img[off as usize..off as usize + len].to_vec());
    assert_eq!(rec, meta_at(10));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The satellite invariant: arbitrary torn writes to either slot,
    /// across any epoch sequence, always recover the highest epoch whose
    /// image survives whole in its slot — with exactly that epoch's
    /// contents, never a torn mixture.
    #[test]
    fn recovery_adopts_highest_completed_epoch(history in arb_history()) {
        let (img, best) = apply(&history);
        let rec = MetaStore::recover(|off, len| {
            img[off as usize..off as usize + len].to_vec()
        });
        match best {
            Some(e) => prop_assert_eq!(rec, meta_at(e), "history={:?}", history),
            None => prop_assert_eq!(rec, VolumeMeta::default(), "history={:?}", history),
        }
    }

    /// The realistic crash shape: N completed updates, then the power
    /// fails partway through update N+1. Recovery lands on epoch N —
    /// or on N+1 in the benign case where the torn tail coincides with
    /// the slot's previous bytes and reconstitutes the full new image.
    #[test]
    fn crash_mid_write_falls_back_one_epoch(
        n in 1u64..12,
        pct in 1u8..100,
    ) {
        let mut history: Vec<Op> = (0..n).map(|_| None).collect();
        history.push(Some(pct));
        let (img, best) = apply(&history);
        let rec = MetaStore::recover(|off, len| {
            img[off as usize..off as usize + len].to_vec()
        });
        prop_assert!(best == Some(n) || best == Some(n + 1), "best={:?}", best);
        prop_assert_eq!(rec, meta_at(best.unwrap()));
    }

    /// A valid slot survives arbitrary garbage in the other slot: recovery
    /// never adopts bytes that fail the CRC, whatever they contain.
    #[test]
    fn garbage_sibling_slot_never_wins(
        epoch in 1u64..20,
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
        at in 0usize..1024,
    ) {
        let mut img = vec![0u8; META_BYTES as usize];
        let enc = meta_at(epoch).encode();
        let slot = MetaStore::slot_for_epoch(epoch) as usize;
        img[slot..slot + enc.len()].copy_from_slice(&enc);
        // Scribble into the *other* slot.
        let other = if slot == 0 { SLOT_BYTES as usize } else { 0 };
        let at = at.min(SLOT_BYTES as usize - garbage.len().min(SLOT_BYTES as usize));
        img[other + at..other + at + garbage.len()].copy_from_slice(&garbage);

        let rec = MetaStore::recover(|off, len| {
            img[off as usize..off as usize + len].to_vec()
        });
        prop_assert_eq!(rec, meta_at(epoch));
    }
}

/// A metadata body that opens like a real one — a u64, then a u32 item
/// count — over arbitrary bytes, so the count usually claims far more
/// items than the bytes behind it could hold.
fn arb_counted_body(lead: usize) -> impl Strategy<Value = Vec<u8>> {
    (
        proptest::collection::vec(any::<u8>(), lead..lead + 1),
        prop_oneof![any::<u32>(), Just(u32::MAX), 0u32..16],
        proptest::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(|(lead, n, rest): (Vec<u8>, u32, Vec<u8>)| {
            let mut b = lead;
            b.extend_from_slice(&n.to_le_bytes());
            b.extend_from_slice(&rest);
            b
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `VolumeMeta::decode` is total: any body behind a valid header and
    /// CRC (so the body parser is reached) decodes or is refused, never
    /// panics or aborts, and whatever decodes re-encodes to itself.
    #[test]
    fn volume_meta_decodes_any_body(epoch in any::<u64>(), body in arb_counted_body(8)) {
        let magic = &VolumeMeta::default().encode()[..4];
        let mut guarded = epoch.to_le_bytes().to_vec();
        guarded.extend_from_slice(&body);
        let mut img = magic.to_vec();
        img.extend_from_slice(&epoch.to_le_bytes());
        img.extend_from_slice(&(body.len() as u32).to_le_bytes());
        img.extend_from_slice(&pmm::meta::crc32(&guarded).to_le_bytes());
        img.extend_from_slice(&body);
        if let Some(meta) = VolumeMeta::decode(&img) {
            prop_assert_eq!(VolumeMeta::decode(&meta.encode()), Some(meta));
        }
    }

    /// `PoolMeta::from_bytes` is total: any bytes decode or are refused,
    /// never panic or abort, and whatever decodes is exactly what
    /// `to_bytes` would write.
    #[test]
    fn pool_meta_decodes_any_bytes(bytes in arb_counted_body(16)) {
        if let Some(meta) = PoolMeta::from_bytes(&bytes) {
            prop_assert_eq!(meta.to_bytes(), bytes);
        }
    }
}
