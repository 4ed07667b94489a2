//! Crash recovery: redo/undo from the audit trail, and the MTTR model.
//!
//! §3.4: "being able to update indices, lock tables and transaction
//! control blocks at a fine grain reduces uncertainty regarding the state
//! of the database, and eliminates costly heuristic searching of audit
//! trail information, leading to shorter MTTR, which is the mantra for
//! both better availability and data integrity."
//!
//! Three recovery strategies are modelled (experiment T3):
//!
//! * **disk scan** — read the whole trail from the audit volume(s) and
//!   redo committed work (baseline);
//! * **PM scan** — same scan, but the trail is read over RDMA from the
//!   NPMU at fabric speed;
//! * **PM + TCBs** — transaction control blocks were maintained at fine
//!   grain in PM, so recovery knows exactly which transactions were
//!   in-flight and where their trail extents are: it reads only the tail
//!   past the last fuzzy checkpoint mark.

use crate::audit::{AuditRecord, Records, Window};
use crate::dp2::StoredRecord;
use crate::types::{Lsn, PartitionId, TxnId};
use simcore::hash::FastSet;
use simcore::SimDuration;
use simdisk::DiskConfig;
use simnet::FabricConfig;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Outcome of a redo/undo pass. Its maps keep std's hasher: callers
/// outside the crates (the end-to-end benchmark's oracle) name them by
/// type.
#[derive(Default, Debug)]
pub struct RecoveredState {
    pub tables: HashMap<PartitionId, BTreeMap<u64, StoredRecord>>,
    pub committed: HashSet<TxnId>,
    pub aborted: HashSet<TxnId>,
    /// Began (wrote audit) but neither committed nor aborted: their
    /// effects are undone (not redone).
    pub inflight: HashSet<TxnId>,
    pub records_scanned: u64,
    pub bytes_scanned: u64,
}

/// Merge per-partition trail windows into one serializable history,
/// lazily: each window is read one record at a time ([`Records`]), so the
/// history is never held in memory.
///
/// Each partition's window is internally LSN-ordered (the reader stamps
/// each record with its virtual LSN, a lapped ring's included); the merge
/// interleaves partitions by `(Lsn, partition)` so replaying the merged
/// stream front to back is equivalent to some serial execution: a
/// transaction's records are confined to one partition (all audit sites
/// route by [`TxnId::audit_partition`]), so cross-partition order only
/// matters between independent transactions, and the LSN tiebreak makes
/// the interleaving deterministic.
///
/// Yields `(partition_index, lsn, record)` triples.
fn merge_windows_by_lsn<'a>(windows: &[Window<'a>]) -> MergeByLsn<'a> {
    let mut parts: Vec<Records<'a>> = windows.iter().map(|&w| Records::new(w)).collect();
    let fronts = parts.iter_mut().map(Iterator::next).collect();
    MergeByLsn { parts, fronts }
}

/// The k-way merge [`merge_windows_by_lsn`] returns: one decoded record
/// per partition, the front of its window.
struct MergeByLsn<'a> {
    parts: Vec<Records<'a>>,
    fronts: Vec<Option<(Lsn, AuditRecord)>>,
}

impl Iterator for MergeByLsn<'_> {
    type Item = (usize, Lsn, AuditRecord);

    fn next(&mut self) -> Option<(usize, Lsn, AuditRecord)> {
        // k is small (partition count); a linear min scan beats a heap.
        // Strictly less: the lower partition wins a tie.
        let mut best: Option<(usize, Lsn)> = None;
        for (i, front) in self.fronts.iter().enumerate() {
            if let Some((lsn, _)) = front {
                if best.is_none_or(|(_, b)| *lsn < b) {
                    best = Some((i, *lsn));
                }
            }
        }
        let (i, _) = best?;
        let next = self.parts[i].next();
        let (lsn, rec) = std::mem::replace(&mut self.fronts[i], next)?;
        Some((i, lsn, rec))
    }
}

/// One node's partition trails, and every transaction their records name,
/// by the kind of record that names it. It keeps the windows, not their
/// records: the redo reads them again.
struct NodeScan<'a> {
    windows: &'a [Window<'a>],
    records: u64,
    bytes: u64,
    /// Wrote data (an `Insert`).
    wrote: FastSet<TxnId>,
    prepared: FastSet<TxnId>,
    committed: FastSet<TxnId>,
    aborted: FastSet<TxnId>,
}

/// Pass 1 of every recovery: merge a node's trails by LSN and collect the
/// outcome records found in them.
fn scan_node<'a>(windows: &'a [Window<'a>]) -> NodeScan<'a> {
    let mut node = NodeScan {
        windows,
        records: 0,
        bytes: windows.iter().map(|t| t.bytes.len() as u64).sum(),
        wrote: FastSet::default(),
        prepared: FastSet::default(),
        committed: FastSet::default(),
        aborted: FastSet::default(),
    };
    for (_, _, r) in merge_windows_by_lsn(windows) {
        node.records += 1;
        match r {
            AuditRecord::Insert { txn, .. } => node.wrote.insert(txn),
            AuditRecord::Prepared { txn } => node.prepared.insert(txn),
            AuditRecord::Commit { txn } => node.committed.insert(txn),
            AuditRecord::Abort { txn } => node.aborted.insert(txn),
            AuditRecord::CheckpointMark { .. } => continue,
        };
    }
    node
}

/// The last pass of every recovery: merge the node's trails again and
/// redo the inserts of `committed` transactions only. Undo of an insert is
/// "don't redo it", since recovery starts from the last consistent data
/// image (here: empty tables; a real DP2 would start from its data volumes
/// plus this).
fn redo_committed(
    node: &NodeScan<'_>,
    committed: impl Fn(&TxnId) -> bool,
) -> HashMap<PartitionId, BTreeMap<u64, StoredRecord>> {
    // std-hashed: this becomes `RecoveredState::tables`.
    #[allow(clippy::disallowed_methods)]
    let mut tables: HashMap<PartitionId, BTreeMap<u64, StoredRecord>> = HashMap::new();
    for (_, _, r) in merge_windows_by_lsn(node.windows) {
        if let AuditRecord::Insert {
            txn,
            partition,
            key,
            virtual_len,
            body_crc,
            ..
        } = r
        {
            if committed(&txn) {
                tables.entry(partition).or_default().insert(
                    key,
                    StoredRecord {
                        virtual_len,
                        crc: body_crc,
                    },
                );
            }
        }
    }
    tables
}

/// Redo/undo over one node's partition trails (one trail is the
/// one-partition case): merge the per-partition histories by LSN, collect
/// outcomes, redo the committed. A trail that holds only outcome records
/// — a master trail — is just one more partition. In isolation a
/// `Prepared` transaction with no outcome stays in flight (undone):
/// resolving it for real needs the coordinator shard's trail, see
/// [`redo_scan_sharded`].
pub fn redo_scan_partitioned(trails: &[&[u8]]) -> RecoveredState {
    let windows: Vec<Window<'_>> = trails.iter().map(|&t| t.into()).collect();
    let node = scan_node(&windows);
    let tables = redo_committed(&node, |t| node.committed.contains(t));
    let inflight = node
        .wrote
        .union(&node.prepared)
        .filter(|t| !node.committed.contains(t) && !node.aborted.contains(t))
        .copied()
        .collect();
    RecoveredState {
        tables,
        inflight,
        records_scanned: node.records,
        bytes_scanned: node.bytes,
        committed: node.committed.into_iter().collect(),
        aborted: node.aborted.into_iter().collect(),
    }
}

/// Cluster-wide recovery outcome over sharded trails (std-hashed sets,
/// like [`RecoveredState`]'s).
#[derive(Default, Debug)]
pub struct ShardedRecovery {
    /// Per-shard recovered state, redone under the *global* resolution
    /// (index = shard id).
    pub shards: Vec<RecoveredState>,
    /// Globally committed transactions.
    pub committed: HashSet<TxnId>,
    /// Globally aborted transactions (explicit record or presumed).
    pub aborted: HashSet<TxnId>,
    /// Prepared-but-undecided participants resolved COMMIT by the
    /// coordinator shard's decision record.
    pub indoubt_committed: HashSet<TxnId>,
    /// Prepared-but-undecided participants with no decision record on the
    /// coordinator shard: presumed abort.
    pub indoubt_aborted: HashSet<TxnId>,
}

/// Cluster-wide redo/undo: one entry per shard, each a set of that
/// shard's partition trail images (merged internally by the k-way LSN
/// merge). Resolution rules, per shard and transaction:
///
/// 1. a **local outcome record** (Commit/Abort) wins — the coordinator
///    wrote it at its commit point, or the participant on decision
///    delivery;
/// 2. **prepared, no local outcome** (in-doubt): consult the coordinator
///    shard's trail ([`TxnId::coordinator_shard`]) — commit iff its
///    decision Commit record exists there, else *presumed abort* (the
///    coordinator never hardened a decision, so it can never have acked);
/// 3. **neither** — in-flight work, undone.
///
/// These rules are consistent across shards by construction: the
/// coordinator only hardens its Commit record after every participant's
/// data AND `Prepared` record are durable, so a committed transaction is
/// either locally decided or rule-2-resolvable on every shard it touched.
pub fn redo_scan_sharded(shards: &[Vec<&[u8]>]) -> ShardedRecovery {
    let windows: Vec<Vec<Window<'_>>> = shards
        .iter()
        .map(|trails| trails.iter().map(|&t| t.into()).collect())
        .collect();
    redo_windows_sharded(&windows)
}

/// [`redo_scan_sharded`] over trail windows: what a lapped ring still
/// holds, each record at its virtual LSN ([`crate::audit::ring_window`]).
pub fn redo_windows_sharded(shards: &[Vec<Window<'_>>]) -> ShardedRecovery {
    let nodes: Vec<NodeScan> = shards.iter().map(|trails| scan_node(trails)).collect();
    let mut out = ShardedRecovery::default();

    // Global resolution, on top of what each node's own trails say.
    for node in &nodes {
        for txn in node.wrote.union(&node.prepared) {
            if node.committed.contains(txn) {
                out.committed.insert(*txn);
            } else if node.aborted.contains(txn) {
                out.aborted.insert(*txn);
            } else if node.prepared.contains(txn) {
                // In-doubt: the coordinator trail decides.
                let coordinator = nodes.get(txn.coordinator_shard() as usize);
                if coordinator.is_some_and(|c| c.committed.contains(txn)) {
                    out.indoubt_committed.insert(*txn);
                    out.committed.insert(*txn);
                } else if coordinator.is_some_and(|c| c.aborted.contains(txn)) {
                    out.aborted.insert(*txn);
                } else {
                    out.indoubt_aborted.insert(*txn);
                    out.aborted.insert(*txn);
                }
            }
            // else: in-flight on this shard, undone.
        }
    }

    // Redo each shard under the global resolution.
    for node in nodes {
        out.shards.push(RecoveredState {
            tables: redo_committed(&node, |t| out.committed.contains(t)),
            committed: node
                .wrote
                .union(&node.prepared)
                .filter(|t| out.committed.contains(t))
                .copied()
                .collect(),
            inflight: node
                .wrote
                .iter()
                .filter(|t| !out.committed.contains(t) && !out.aborted.contains(t))
                .copied()
                .collect(),
            records_scanned: node.records,
            bytes_scanned: node.bytes,
            aborted: node.aborted.into_iter().collect(),
        });
    }
    out
}

/// CPU cost to apply one redo record during recovery, ns.
pub const REDO_APPLY_NS: u64 = 30_000;
/// Scan chunk size (both disk reads and RDMA reads), bytes.
pub const SCAN_CHUNK: u64 = 256 * 1024;
/// In-flight window of the streaming PM trail scan: how many
/// [`SCAN_CHUNK`] RDMA reads recovery keeps ahead of the redo-apply
/// cursor. At 1 the scan degenerates to lock-step chunk-at-a-time reads;
/// at the default the fabric stays busy while the CPU applies records, so
/// the scan runs at wire bandwidth instead of one round trip per chunk.
pub const SCAN_WINDOW: u32 = 8;

/// Modelled time to scan-and-redo a trail of `trail_bytes` with `records`
/// records from a disk audit volume: chunked sequential reads plus apply
/// CPU.
pub fn mttr_disk_scan(trail_bytes: u64, records: u64, disk: &DiskConfig) -> SimDuration {
    let chunks = trail_bytes.div_ceil(SCAN_CHUNK).max(1);
    // First chunk pays a full positioning; the rest stream sequentially.
    let position = disk.avg_seek_ns + disk.revolution_ns / 2;
    let seq_pos = (disk.revolution_ns as f64 * disk.sequential_rot_frac) as u64;
    let transfer = trail_bytes * 1_000_000_000 / disk.media_bw_bps;
    let io =
        position + chunks * disk.stack_overhead_ns + chunks.saturating_sub(1) * seq_pos + transfer;
    SimDuration::from_nanos(io + records * REDO_APPLY_NS)
}

/// I/O time to stream `chunks` reads of `chunk_len` bytes with `window`
/// of them in flight. With one outstanding read each chunk pays a full
/// round trip; with a window the reads pipeline and successive chunks
/// land every `max(wire, rtt / window)` — wire-limited once the window
/// covers the round trip. Apply CPU is modelled by the callers.
fn scan_io_ns(fabric: &FabricConfig, chunks: u64, chunk_len: u32, window: u32) -> u64 {
    let rtt = simnet::latency::read_round_trip_ns(fabric, chunk_len);
    if window <= 1 {
        return chunks * rtt;
    }
    let wire = simnet::latency::wire_ns(fabric, chunk_len);
    let cadence = wire.max(rtt / window as u64);
    rtt + chunks.saturating_sub(1) * cadence
}

/// Modelled time to scan-and-redo the same trail out of persistent memory
/// over RDMA, with [`SCAN_WINDOW`] chunk reads prefetched ahead of the
/// redo-apply cursor: the one-trail [`mttr_pm_scan_partitioned`].
pub fn mttr_pm_scan(trail_bytes: u64, records: u64, fabric: &FabricConfig) -> SimDuration {
    mttr_pm_scan_partitioned(&[trail_bytes], records, fabric, SCAN_WINDOW)
}

/// Modelled recovery over *partitioned* trails ([`redo_scan_partitioned`]):
/// every partition's tail streams concurrently from its own audit region
/// (independent device ports), so the I/O phase costs the slowest
/// partition, not the sum; the k-way merge + redo apply is serial CPU.
/// Apply overlaps the prefetched fetches — only the last chunk's share of
/// it is forced to run after the I/O finishes — unless `window` is 1, the
/// lock-step chunk-at-a-time scan the pre-pipelined recovery performed.
pub fn mttr_pm_scan_partitioned(
    partition_bytes: &[u64],
    records: u64,
    fabric: &FabricConfig,
    window: u32,
) -> SimDuration {
    let mut io = 0u64;
    let mut total_chunks = 0u64;
    for &bytes in partition_bytes {
        if bytes == 0 {
            continue;
        }
        let chunks = bytes.div_ceil(SCAN_CHUNK);
        let chunk_len = SCAN_CHUNK.min(bytes) as u32;
        io = io.max(scan_io_ns(fabric, chunks, chunk_len, window));
        total_chunks += chunks;
    }
    let apply = records * REDO_APPLY_NS;
    if total_chunks == 0 {
        return SimDuration::from_nanos(apply);
    }
    if window <= 1 {
        return SimDuration::from_nanos(io + apply);
    }
    let tail = apply / total_chunks;
    SimDuration::from_nanos(io.max(apply - tail) + tail)
}

/// Modelled recovery with PM-resident transaction control blocks: read the
/// TCB table (one small RDMA read), then stream and redo only the tail
/// written after the last fuzzy checkpoint (at least one read: the tail's
/// end is not known until it is looked at).
pub fn mttr_pm_with_tcb(tail_bytes: u64, tail_records: u64, fabric: &FabricConfig) -> SimDuration {
    let tcb_read = simnet::latency::read_round_trip_ns(fabric, 4096);
    SimDuration::from_nanos(tcb_read) + mttr_pm_scan(tail_bytes.max(1), tail_records, fabric)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{Bytes, BytesMut};

    fn insert(txn: u64, part: u32, key: u64) -> AuditRecord {
        AuditRecord::Insert {
            txn: TxnId(txn),
            partition: PartitionId { file: 0, part },
            key,
            virtual_len: 64,
            body_crc: 7,
            body: Bytes::new(),
        }
    }

    fn trail(recs: &[AuditRecord]) -> Vec<u8> {
        let mut b = BytesMut::new();
        for r in recs {
            r.encode_into(&mut b);
        }
        b.to_vec()
    }

    #[test]
    fn redo_applies_committed_only() {
        let data = trail(&[
            insert(1, 0, 10),
            insert(2, 0, 20),
            insert(3, 1, 30),
            AuditRecord::Abort { txn: TxnId(3) },
        ]);
        let master = trail(&[AuditRecord::Commit { txn: TxnId(1) }]);
        let rec = redo_scan_partitioned(&[&data, &master]);
        assert!(rec.committed.contains(&TxnId(1)));
        assert!(rec.aborted.contains(&TxnId(3)));
        assert!(rec.inflight.contains(&TxnId(2)));
        let p0 = rec.tables.get(&PartitionId { file: 0, part: 0 }).unwrap();
        assert!(p0.contains_key(&10), "committed insert redone");
        assert!(!p0.contains_key(&20), "in-flight insert undone");
        assert!(!rec
            .tables
            .get(&PartitionId { file: 0, part: 1 })
            .map(|t| t.contains_key(&30))
            .unwrap_or(false));
    }

    #[test]
    fn redo_across_multiple_trails() {
        let t1 = trail(&[insert(5, 0, 1)]);
        let t2 = trail(&[insert(5, 1, 2), AuditRecord::Commit { txn: TxnId(5) }]);
        let rec = redo_scan_partitioned(&[&t1, &t2]);
        assert!(rec.committed.contains(&TxnId(5)));
        assert_eq!(rec.records_scanned, 3);
        assert!(rec.tables[&PartitionId { file: 0, part: 0 }].contains_key(&1));
        assert!(rec.tables[&PartitionId { file: 0, part: 1 }].contains_key(&2));
    }

    #[test]
    fn torn_tail_ignored() {
        let mut data = trail(&[insert(1, 0, 1), AuditRecord::Commit { txn: TxnId(1) }]);
        let torn = insert(2, 0, 2).encode();
        data.extend_from_slice(&torn[..torn.len() / 2]);
        let rec = redo_scan_partitioned(&[&data]);
        assert_eq!(rec.records_scanned, 2);
        assert!(!rec.tables[&PartitionId { file: 0, part: 0 }].contains_key(&2));
    }

    #[test]
    fn mttr_ordering_matches_paper_claims() {
        let disk = DiskConfig::default();
        let fabric = FabricConfig::default();
        let bytes = 64 << 20; // 64 MB trail
        let records = 16_000;
        let d = mttr_disk_scan(bytes, records, &disk);
        let p = mttr_pm_scan(bytes, records, &fabric);
        let t = mttr_pm_with_tcb(1 << 20, 250, &fabric);
        assert!(p < d, "PM scan {p} !< disk scan {d}");
        assert!(t < p, "TCB recovery {t} !< PM scan {p}");
        // TCB recovery is orders of magnitude below the disk scan.
        assert!(t.as_nanos() * 20 < d.as_nanos());
    }

    #[test]
    fn windowed_scan_beats_lock_step() {
        let fabric = FabricConfig::default();
        let bytes = 64 << 20;
        // Few records so I/O dominates: the win is pure pipelining.
        let lock_step = mttr_pm_scan_partitioned(&[bytes], 100, &fabric, 1);
        let windowed = mttr_pm_scan_partitioned(&[bytes], 100, &fabric, SCAN_WINDOW);
        assert!(
            lock_step.as_nanos() > windowed.as_nanos(),
            "window must help: {lock_step} !> {windowed}"
        );
        // A 256 KiB chunk's wire time is ~2.1 ms of its ~2.2 ms round
        // trip, so even lock-step is within 2× of wire speed; the window
        // must claw back most of the remaining gap, and a deeper window
        // never hurts.
        let deeper = mttr_pm_scan_partitioned(&[bytes], 100, &fabric, 2 * SCAN_WINDOW);
        assert!(deeper.as_nanos() <= windowed.as_nanos());
    }

    #[test]
    fn windowed_scan_overlaps_apply_with_fetch() {
        let fabric = FabricConfig::default();
        // Apply-heavy recovery: the windowed model hides fetches behind
        // apply CPU instead of paying them serially.
        let bytes = 64u64 << 20;
        let records = 100_000u64;
        let windowed = mttr_pm_scan(bytes, records, &fabric);
        let serial_floor = records * REDO_APPLY_NS;
        let lock_step = mttr_pm_scan_partitioned(&[bytes], records, &fabric, 1);
        assert!(windowed.as_nanos() >= serial_floor, "apply is serial CPU");
        assert!(windowed < lock_step);
    }

    /// [`mttr_pm_scan`] used to be a body of its own; the digits T3
    /// prints were taken from it before it became the one-trail call, at
    /// the prefetch window and in lock-step.
    #[test]
    fn one_trail_scan_keeps_t3s_digits() {
        let fabric = FabricConfig::default();
        for (mb, windowed, lock_step) in [
            (16u64, 142_705_540, 264_560_896),
            (64, 565_019_524, 1_058_243_584),
            (256, 2_254_275_460, 4_232_974_336),
            (1024, 9_011_299_204, 16_931_897_344u64),
        ] {
            let (bytes, records) = (mb << 20, (mb << 20) / 4096);
            let scan = |w| mttr_pm_scan_partitioned(&[bytes], records, &fabric, w).as_nanos();
            assert_eq!(scan(SCAN_WINDOW), windowed, "{mb} MB");
            assert_eq!(scan(1), lock_step, "{mb} MB, lock-step");
            assert_eq!(mttr_pm_scan(bytes, records, &fabric).as_nanos(), windowed);
        }
        assert_eq!(
            mttr_pm_with_tcb(2 << 20, 512, &fabric).as_nanos(),
            19_579_208
        );
        assert_eq!(mttr_pm_with_tcb(0, 0, &fabric).as_nanos(), 63_000);
    }

    #[test]
    fn partitioned_scan_costs_slowest_partition_not_sum() {
        let fabric = FabricConfig::default();
        let per_part = 16u64 << 20;
        let one = mttr_pm_scan_partitioned(&[per_part], 100, &fabric, SCAN_WINDOW);
        let four = mttr_pm_scan_partitioned(&[per_part; 4], 100, &fabric, SCAN_WINDOW);
        let merged = mttr_pm_scan_partitioned(&[4 * per_part], 100, &fabric, SCAN_WINDOW);
        // Four equal partitions fetch concurrently: barely more than one.
        assert!(
            four.as_nanos() < one.as_nanos() * 12 / 10,
            "{four} vs {one}"
        );
        // And far below streaming the same bytes from a single trail.
        assert!(
            four.as_nanos() * 2 < merged.as_nanos(),
            "{four} vs {merged}"
        );
        // Degenerate inputs stay sane.
        assert_eq!(
            mttr_pm_scan_partitioned(&[], 10, &fabric, SCAN_WINDOW).as_nanos(),
            10 * REDO_APPLY_NS
        );
    }

    #[test]
    fn mttr_scales_with_trail_length() {
        let disk = DiskConfig::default();
        let short = mttr_disk_scan(1 << 20, 250, &disk);
        let long = mttr_disk_scan(256 << 20, 64_000, &disk);
        assert!(long.as_nanos() > 50 * short.as_nanos());
    }

    #[test]
    fn empty_trail_recovers_empty() {
        let rec = redo_scan_partitioned(&[&[][..]]);
        assert!(rec.tables.is_empty());
        assert_eq!(rec.records_scanned, 0);
    }

    #[test]
    fn merge_interleaves_partitions_by_lsn() {
        // Partition 0 holds LSNs 0.. and 200..; partition 1 holds 100..
        // (encoded lengths differ, so fake the positions by building the
        // trails so scan assigns increasing byte offsets — the relative
        // order is what matters).
        let t0 = trail(&[insert(1, 0, 10), insert(1, 0, 11)]);
        let t1 = trail(&[insert(2, 1, 20)]);
        let merged: Vec<_> = merge_windows_by_lsn(&[t0[..].into(), t1[..].into()]).collect();
        assert_eq!(merged.len(), 3);
        // Both trails start at LSN 0; the partition-index tiebreak puts
        // partition 0 first, and within a partition LSN order is kept.
        assert_eq!(merged[0].0, 0);
        assert_eq!(merged[1].0, 1, "lsn0 of partition 1 before lsn>0");
        assert_eq!(merged[2].0, 0);
        assert!(merged[0].1 <= merged[2].1);
    }

    #[test]
    fn partitioned_redo_matches_single_trail_semantics() {
        // Txn 1 commits on partition 0, txn 2 stays in-flight on
        // partition 1, txn 3 aborts on partition 1 — outcomes are in-line
        // (no master trail) as the partitioned TMF routes them.
        let t0 = trail(&[insert(1, 0, 10), AuditRecord::Commit { txn: TxnId(1) }]);
        let t1 = trail(&[
            insert(2, 1, 20),
            insert(3, 1, 30),
            AuditRecord::Abort { txn: TxnId(3) },
        ]);
        let rec = redo_scan_partitioned(&[&t0, &t1]);
        assert!(rec.committed.contains(&TxnId(1)));
        assert!(rec.inflight.contains(&TxnId(2)));
        assert!(rec.aborted.contains(&TxnId(3)));
        assert_eq!(rec.records_scanned, 5);
        assert!(rec.tables[&PartitionId { file: 0, part: 0 }].contains_key(&10));
        assert!(!rec
            .tables
            .get(&PartitionId { file: 0, part: 1 })
            .map(|t| t.contains_key(&20) || t.contains_key(&30))
            .unwrap_or(false));
    }

    #[test]
    fn sharded_recovery_resolves_indoubt_via_coordinator() {
        // T: cross-shard, coordinator 0 decided commit; shard 1 crashed
        // in-doubt (Prepared, no outcome) → resolves COMMIT via shard 0.
        let t = TxnId::compose(0, 5);
        // U: cross-shard, coordinator 0 never hardened a decision; shard 1
        // prepared → presumed ABORT everywhere.
        let u = TxnId::compose(0, 6);
        // V: single-shard on shard 1, plain fast-path commit.
        let v = TxnId::compose(1, 3);
        // W: in-flight on shard 1 (no prepare, no outcome) → undone.
        let w = TxnId::compose(1, 4);
        let ins = |txn: TxnId, part: u32, key: u64| AuditRecord::Insert {
            txn,
            partition: PartitionId {
                file: part,
                part: 0,
            },
            key,
            virtual_len: 64,
            body_crc: 7,
            body: bytes::Bytes::new(),
        };
        let s0 = trail(&[ins(t, 0, 10), AuditRecord::Commit { txn: t }, ins(u, 0, 20)]);
        let s1 = trail(&[
            ins(t, 4, 11),
            AuditRecord::Prepared { txn: t },
            ins(u, 4, 21),
            AuditRecord::Prepared { txn: u },
            ins(v, 5, 30),
            AuditRecord::Commit { txn: v },
            ins(w, 5, 40),
        ]);
        let rec = redo_scan_sharded(&[vec![&s0], vec![&s1]]);
        assert!(rec.committed.contains(&t));
        assert!(rec.committed.contains(&v));
        assert!(rec.aborted.contains(&u));
        assert!(rec.indoubt_committed.contains(&t));
        assert!(rec.indoubt_aborted.contains(&u));
        assert!(!rec.indoubt_aborted.contains(&t));
        // No shard applies what another shard aborted; T applies on BOTH.
        assert!(rec.shards[0].tables[&PartitionId { file: 0, part: 0 }].contains_key(&10));
        assert!(rec.shards[1].tables[&PartitionId { file: 4, part: 0 }].contains_key(&11));
        assert!(!rec.shards[0]
            .tables
            .get(&PartitionId { file: 0, part: 0 })
            .map(|t| t.contains_key(&20))
            .unwrap_or(false));
        assert!(!rec.shards[1]
            .tables
            .get(&PartitionId { file: 4, part: 0 })
            .map(|t| t.contains_key(&21))
            .unwrap_or(false));
        assert!(rec.shards[1].tables[&PartitionId { file: 5, part: 0 }].contains_key(&30));
        assert!(!rec.shards[1].tables[&PartitionId { file: 5, part: 0 }].contains_key(&40));
        assert!(rec.shards[1].inflight.contains(&w));
        // Per-shard committed views agree with the global resolution.
        assert!(rec.shards[1].committed.contains(&t));
        assert!(!rec.shards[1].committed.contains(&u));
    }

    #[test]
    fn sharded_recovery_single_shard_degenerates() {
        let t0 = trail(&[insert(1, 0, 10), AuditRecord::Commit { txn: TxnId(1) }]);
        let sharded = redo_scan_sharded(&[vec![&t0]]);
        let plain = redo_scan_partitioned(&[&t0]);
        assert_eq!(sharded.committed, plain.committed);
        assert_eq!(sharded.shards[0].tables, plain.tables);
        assert!(sharded.indoubt_committed.is_empty());
        assert!(sharded.indoubt_aborted.is_empty());
    }

    #[test]
    fn partitioned_redo_handles_empty_partitions() {
        let t0 = trail(&[insert(9, 0, 1), AuditRecord::Commit { txn: TxnId(9) }]);
        let rec = redo_scan_partitioned(&[&t0, &[][..], &[][..], &[][..]]);
        assert!(rec.committed.contains(&TxnId(9)));
        assert_eq!(rec.records_scanned, 2);
    }

    /// A key rewritten a lap later, whose older descriptor lies in the
    /// newer record's virtual tail: the device writes that tail as zeros,
    /// so recovery over the lapped window redoes only the newer value.
    /// Were only the encoded bytes written, the older insert and its
    /// commit would still decode in the gaps, each at an LSN past the
    /// newer insert's, and redo would end on the stale value.
    #[test]
    fn a_key_rewritten_a_lap_later_redoes_only_the_newer_value() {
        use crate::audit::{ring_window, scan_window};
        use crate::trail::{split_image, split_trail_parts, PM_CTRL_BYTES};
        const CAP: u64 = 1100;
        const VIRT: u64 = 250;
        let value = |txn: u64, key: u64, crc: u32| AuditRecord::Insert {
            txn: TxnId(txn),
            partition: PartitionId { file: 0, part: 0 },
            key,
            virtual_len: VIRT as u32,
            body_crc: crc,
            body: Bytes::new(),
        };
        // LSN 0 and 250 hold txn 1's insert and commit; a lap later
        // txn 2's insert (LSN 1000) and commit (1250) begin 150 and 100
        // bytes before them, at positions 1000 and 150, so their tails
        // cover both.
        let appends = [
            value(1, 10, 0xA),
            AuditRecord::Commit { txn: TxnId(1) },
            value(3, 30, 0xF),
            AuditRecord::Commit { txn: TxnId(3) },
            value(2, 10, 0xB),
            AuditRecord::Commit { txn: TxnId(2) },
        ];
        let mut region = simcore::pages::PageStore::new(PM_CTRL_BYTES + CAP);
        for (i, rec) in appends.iter().enumerate() {
            let enc = rec.encode();
            for (off, part, wire) in split_trail_parts(i as u64 * VIRT, CAP, VIRT, enc.len()) {
                region.write_span(off, &enc[part], wire.into());
            }
        }
        let watermark = appends.len() as u64 * VIRT;
        let (_, ring) = split_image(region.read(0, (PM_CTRL_BYTES + CAP) as usize));
        let (base, bytes) = ring_window(&ring, watermark, CAP);
        let window = Window {
            base,
            bytes: &bytes,
        };
        let scan = scan_window(window);
        let longest = appends.iter().map(|r| r.encode().len()).max().unwrap();
        assert!(scan.skipped <= longest as u64, "{} skipped", scan.skipped);
        let lsns: Vec<u64> = scan.records.iter().map(|(l, _)| l.0).collect();
        assert_eq!(lsns, [500, 750, 1000, 1250]);
        let rec = redo_windows_sharded(&[vec![window]]);
        let table = &rec.shards[0].tables[&PartitionId { file: 0, part: 0 }];
        assert_eq!((table[&10].crc, table[&30].crc), (0xB, 0xF));
        assert!(!rec.committed.contains(&TxnId(1)));
    }
}
