//! The correctness oracle. After the measured phase the simulation is
//! dropped (power loss) and the system is recovered from the durable store
//! alone: the tail of every audit trail is read off the media images and
//! handed to the crates' own offline redo scan. Every commit acknowledged
//! to a client that is still inside the (circular) trail must be redone
//! with all of its inserts, and recovery must not invent a commit.

use crate::driver::RunLog;
use crate::plan::{Plan, Spec, FILES, RECORD_BYTES};
use crate::rig::{ShardTrails, TrailLoc};
use simcore::DurableStore;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;
use txnkit::adp::{parse_ctrl_cell, PM_CTRL_BYTES};
use txnkit::audit::AuditRecord;
use txnkit::dp2::StoredRecord;
use txnkit::recovery::{redo_scan_partitioned, redo_scan_sharded};
use txnkit::{PartitionId, TxnId};

/// Acknowledged commits the oracle tries to cover, newest first.
const COVER_TARGET: usize = 10_000;
/// A disk flush writes its batch compacted at the batch's base LSN, so a
/// record can sit this far below its own LSN (the group-commit size cap
/// plus one append).
const DISK_BATCH_SLACK: u64 = 256 << 10;
/// No audit record the workloads produce is longer than this (the longest,
/// a checkpoint mark, is 14 bytes plus 8 per in-flight transaction).
const MAX_RECORD_BYTES: usize = 16 << 10;

#[derive(Debug, Default)]
pub struct OracleReport {
    /// Acknowledged commits verified against the recovered state.
    pub checked: u64,
    /// Of those, not redone or redone without all their inserts.
    pub lost: u64,
    /// Recovered-committed transactions no client was told had committed.
    pub invented: u64,
    pub violations: Vec<String>,
    pub records_scanned: u64,
    /// Host ns reading the media images and cutting the trail tails.
    pub read_host_ns: u64,
    /// Host ns inside `redo_scan_partitioned` / `redo_scan_sharded`.
    pub redo_host_ns: u64,
    /// Host ns inside `pmem::verify_mirrors` (repair workload only).
    pub verify_host_ns: u64,
}

impl OracleReport {
    pub fn failures(&self) -> u64 {
        self.lost + self.invented + self.violations.len() as u64
    }

    pub fn violate(&mut self, msg: String) {
        if self.violations.len() < 16 {
            eprintln!("oracle: {msg}");
        }
        self.violations.push(msg);
    }
}

/// `AuditRecord::decode` reads its fixed fields before checking the body is
/// long enough for them, so a fragment whose header survived with a short
/// length (and the matching checksum of nothing) panics it. Per the layout
/// documented on `AuditRecord::encode_into` (`magic | type | body_len u32 |
/// crc u32 | body`), no record body is shorter than 8 bytes, or 4 for a
/// checkpoint mark (type 4).
fn plausible_header(buf: &[u8]) -> bool {
    buf.len() >= 10 && {
        let body_len = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]);
        body_len >= if buf[1] == 4 { 4 } else { 8 }
    }
}

/// Zero every non-zero byte run that does not decode as an audit record.
/// A circular trail keeps fragments of earlier laps between and under the
/// newest records; the crates' scanner stops at the first of them, so the
/// tail handed to it must hold whole records only.
pub fn sanitize(trail: &mut [u8]) {
    let mut pos = 0;
    while pos < trail.len() {
        if trail[pos] == 0 {
            pos += 1;
            continue;
        }
        // A fragment's length field is garbage: without the cap the decoder
        // would checksum megabytes before rejecting it.
        let end = trail.len().min(pos + MAX_RECORD_BYTES);
        let candidate = &trail[pos..end];
        match plausible_header(candidate)
            .then(|| AuditRecord::decode(candidate))
            .flatten()
        {
            Some((_, used)) => pos += used,
            None => {
                trail[pos] = 0;
                pos += 1;
            }
        }
    }
}

/// A PM trail located in its device image: the image, the region's base,
/// the ring capacity behind the control cell and the durable watermark.
struct PmTrail {
    img: simcore::durable::Image<npmu::NvImage>,
    base: u64,
    cap: u64,
    watermark: u64,
}

fn locate_pm(store: &DurableStore, device_key: &str, region: &str) -> Result<PmTrail, String> {
    let img = store
        .get::<npmu::NvImage>(device_key)
        .ok_or_else(|| format!("{device_key}: no device image"))?;
    let (base, len, watermark) = {
        let img = img.lock();
        let meta = pmm::MetaStore::recover(|off, len| img.read(off, len));
        let r = meta
            .find(region)
            .ok_or_else(|| format!("{device_key}: region {region} not in metadata"))?;
        let (watermark, _) = parse_ctrl_cell(&img.read(r.base, PM_CTRL_BYTES as usize));
        (r.base, r.len, watermark)
    };
    Ok(PmTrail {
        img,
        base,
        cap: len - PM_CTRL_BYTES,
        watermark,
    })
}

/// The bytes of one trail from LSN `from` to its durable end, oldest first.
fn read_tail(store: &DurableStore, loc: &TrailLoc, from: u64) -> Result<Vec<u8>, String> {
    match loc {
        TrailLoc::Disk { media_key } => {
            let media = store
                .get::<simdisk::SparseMedia>(media_key)
                .ok_or_else(|| format!("{media_key}: no media image"))?;
            let media = media.lock();
            let start = from.saturating_sub(DISK_BATCH_SLACK);
            Ok(media.read(start, media.high_water().saturating_sub(start) as usize))
        }
        TrailLoc::Pm { device_key, region } => {
            let t = locate_pm(store, device_key, region)?;
            if t.watermark < from || t.watermark - from > t.cap {
                return Err(format!(
                    "{device_key}/{region}: tail [{from}, {}) not inside the {}-byte trail",
                    t.watermark, t.cap
                ));
            }
            // Unroll the ring: LSN x lives at region offset ctrl + x % cap.
            let img = t.img.lock();
            let mut out = Vec::with_capacity((t.watermark - from) as usize);
            let mut lsn = from;
            while lsn < t.watermark {
                let pos = lsn % t.cap;
                let n = (t.cap - pos).min(t.watermark - lsn);
                out.extend_from_slice(&img.read(t.base + PM_CTRL_BYTES + pos, n as usize));
                lsn += n;
            }
            Ok(out)
        }
    }
}

/// Recover from `store` alone and check the run's acknowledged commits.
pub fn check(
    store: &mut DurableStore,
    spec: &Spec,
    plan: &Plan,
    shards: &[ShardTrails],
    log: &RunLog,
) -> OracleReport {
    let mut report = OracleReport::default();
    store.reset_volatile();
    let t_read = Instant::now();

    // Every acknowledged insert tells where its ADP's trail stood at that
    // instant, and a trail only grows: all records of transactions begun
    // at or after `cut` lie at or above the highest LSN acknowledged on
    // that trail before `cut`.
    let floor_at = |cut: u64| -> HashMap<&str, u64> {
        let mut floor: HashMap<&str, u64> = HashMap::new();
        for a in log.acks.iter().take_while(|a| a.at < cut) {
            let e = floor.entry(log.adps[a.adp as usize].as_str()).or_default();
            *e = (*e).max(a.lsn_end);
        }
        floor
    };
    let mut begins: Vec<u64> = log
        .txns
        .iter()
        .filter(|t| t.committed)
        .map(|t| t.begin_sent)
        .collect();
    begins.sort_unstable();
    // Durable watermark and capacity of every PM ring, by ADP name.
    let rings: Vec<(&str, u64, u64)> = shards
        .iter()
        .flat_map(|s| s.adps.iter().zip(&s.locs))
        .filter_map(|(adp, loc)| match loc {
            TrailLoc::Pm { device_key, region } => locate_pm(store, device_key, region)
                .ok()
                .map(|t| (adp.as_str(), t.watermark, t.cap)),
            TrailLoc::Disk { .. } => None,
        })
        .collect();
    // Cover the newest COVER_TARGET commits, fewer if a ring has already
    // lapped some of them.
    let mut cover = COVER_TARGET.min(begins.len());
    let (cut, floor) = loop {
        let cut = if cover == 0 {
            u64::MAX
        } else {
            begins[begins.len() - cover]
        };
        let floor = floor_at(cut);
        let lapped = rings.iter().any(|&(adp, watermark, cap)| {
            watermark.saturating_sub(floor.get(adp).copied().unwrap_or(0)) > cap
        });
        if !lapped || cover == 0 {
            break (cut, floor);
        }
        cover = cover * 3 / 4;
    };

    let tails: Vec<Vec<Vec<u8>>> = shards
        .iter()
        .map(|s| {
            s.adps
                .iter()
                .zip(&s.locs)
                .map(|(adp, loc)| {
                    let from = floor.get(adp.as_str()).copied().unwrap_or(0);
                    let mut tail = read_tail(store, loc, from).unwrap_or_else(|why| {
                        report.violate(why);
                        Vec::new()
                    });
                    sanitize(&mut tail);
                    tail
                })
                .collect()
        })
        .collect();
    report.read_host_ns = t_read.elapsed().as_nanos() as u64;

    let t_redo = Instant::now();
    let refs: Vec<Vec<&[u8]>> = tails
        .iter()
        .map(|s| s.iter().map(|t| t.as_slice()).collect())
        .collect();
    type Tables = HashMap<PartitionId, BTreeMap<u64, StoredRecord>>;
    let (committed, tables): (HashSet<TxnId>, Vec<Tables>) = if refs.len() == 1 {
        let rec = redo_scan_partitioned(&refs[0]);
        report.records_scanned = rec.records_scanned;
        (rec.committed, vec![rec.tables])
    } else {
        let rec = redo_scan_sharded(&refs);
        report.records_scanned = rec.shards.iter().map(|s| s.records_scanned).sum();
        (
            rec.committed,
            rec.shards.into_iter().map(|s| s.tables).collect(),
        )
    };
    report.redo_host_ns = t_redo.elapsed().as_nanos() as u64;

    let n = spec.inserts as usize;
    let acked: HashSet<TxnId> = log
        .txns
        .iter()
        .filter(|t| t.committed)
        .map(|t| t.txn)
        .collect();
    for t in log
        .txns
        .iter()
        .filter(|t| t.committed && t.begin_sent >= cut)
    {
        report.checked += 1;
        let inserts = &plan.shards[t.shard as usize].inserts[t.plan_idx as usize * n..][..n];
        let whole = committed.contains(&t.txn)
            && inserts.iter().all(|ins| {
                tables[(ins.partition.file / FILES) as usize]
                    .get(&ins.partition)
                    .and_then(|p| p.get(&ins.key))
                    .is_some_and(|r| r.virtual_len == RECORD_BYTES)
            });
        if !whole {
            report.lost += 1;
            if report.lost <= 8 {
                eprintln!("oracle: acked {:?} lost or half-applied", t.txn);
            }
        }
    }
    report.invented = committed.iter().filter(|t| !acked.contains(t)).count() as u64;
    if report.checked == 0 && !begins.is_empty() {
        report.violate("no acknowledged commit is inside the trails".into());
    }
    report
}

/// Duplicate-and-compare scrub of a mirrored pair's durable images.
pub fn check_mirrors(store: &DurableStore, key_a: &str, key_b: &str, report: &mut OracleReport) {
    let t = Instant::now();
    match (
        store.get::<npmu::NvImage>(key_a),
        store.get::<npmu::NvImage>(key_b),
    ) {
        (Some(a), Some(b)) => {
            let m = pmem::verify_mirrors(&a, &b, 8);
            if m.regions_checked == 0 || !m.discrepancies.is_empty() {
                report.violate(format!(
                    "mirrors {key_a}/{key_b}: {} regions checked, discrepancies {:?}",
                    m.regions_checked, m.discrepancies
                ));
            }
        }
        _ => report.violate(format!("mirror images {key_a}/{key_b} missing")),
    }
    report.verify_host_ns = t.elapsed().as_nanos() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Bytes, BytesMut};
    use txnkit::audit::scan;

    fn insert(txn: u64, key: u64) -> AuditRecord {
        AuditRecord::Insert {
            txn: TxnId(txn),
            partition: PartitionId { file: 0, part: 0 },
            key,
            virtual_len: 4096,
            body_crc: 0,
            body: Bytes::from(key.to_le_bytes().to_vec()),
        }
    }

    #[test]
    fn sanitize_keeps_whole_records_and_drops_fragments() {
        let mut trail = vec![0u8; 4096];
        let a = insert(1, 10).encode();
        let b = AuditRecord::Commit { txn: TxnId(1) }.encode();
        let stale = insert(9, 90).encode();
        trail[0..a.len()].copy_from_slice(&a);
        // A lapped record: only its tail survives, right behind `a`.
        let frag = &stale[stale.len() / 2..];
        trail[a.len()..a.len() + frag.len()].copy_from_slice(frag);
        trail[1000..1000 + b.len()].copy_from_slice(&b);
        assert_eq!(
            scan(&trail).len(),
            1,
            "the crates' scan stops at the fragment"
        );
        sanitize(&mut trail);
        let recs = scan(&trail);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].1, AuditRecord::Commit { txn: TxnId(1) });
        // A header that survived with a zero length and the checksum of
        // nothing: the crates' decoder panics on it.
        let mut short = vec![0xAD, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        sanitize(&mut short);
        assert!(short.iter().all(|&b| b == 0));
        let mut clean = BytesMut::new();
        insert(2, 20).encode_into(&mut clean);
        let mut clean = clean.to_vec();
        let before = clean.clone();
        sanitize(&mut clean);
        assert_eq!(clean, before, "whole records are left untouched");
    }
}
