//! Identifiers and the message vocabulary between drivers, TMF, DP2s and
//! ADPs. All of these travel as `NetDelivery` payloads over the `nsk`
//! message system.

use bytes::Bytes;

/// Transaction identifier, allocated by the TMF.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl std::fmt::Debug for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

impl TxnId {
    /// Bits reserved for the coordinator shard in a cluster-allocated id.
    pub const SHARD_SHIFT: u32 = 56;

    /// Which of `n` audit partitions this transaction's trail work lands
    /// on. Every audit site (DP2 deltas, TMF commit/abort records) MUST
    /// use this same mapping so a transaction's records colocate on one
    /// trail and its commit needs exactly one flush point.
    ///
    /// The multiplier is the 64-bit golden-ratio (splitmix64) constant:
    /// sequential TxnIds spread uniformly instead of striding.
    pub fn audit_partition(&self, n: usize) -> usize {
        if n <= 1 {
            return 0;
        }
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 33) % n as u64) as usize
    }

    /// Allocate a cluster-wide unique id: the coordinating shard lives in
    /// the top [`TxnId::SHARD_SHIFT`] bits, the TMF-local sequence below.
    /// Shard 0 with any sequence < 2^56 is bit-identical to the legacy
    /// single-node id, so single-node trails decode unchanged.
    pub fn compose(shard: u32, seq: u64) -> TxnId {
        debug_assert!(seq < (1 << Self::SHARD_SHIFT));
        TxnId(((shard as u64) << Self::SHARD_SHIFT) | (seq & ((1 << Self::SHARD_SHIFT) - 1)))
    }

    /// The shard whose TMF coordinates this transaction — the shard whose
    /// audit trail holds the authoritative commit/abort decision record.
    /// Recovery consults exactly this trail to resolve in-doubt prepared
    /// transactions.
    pub fn coordinator_shard(&self) -> u32 {
        (self.0 >> Self::SHARD_SHIFT) as u32
    }

    /// TMF-local sequence number within the coordinator shard.
    pub fn sequence(&self) -> u64 {
        self.0 & ((1 << Self::SHARD_SHIFT) - 1)
    }
}

/// Log sequence number: a byte position in one ADP's audit trail.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Lsn(pub u64);

impl std::fmt::Debug for Lsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lsn{}", self.0)
    }
}

/// A partition of the database, owned by exactly one DP2.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PartitionId {
    pub file: u32,
    pub part: u32,
}

// ---------------------------------------------------------------------
// Driver ↔ TMF
// ---------------------------------------------------------------------

/// Start a transaction.
#[derive(Clone, Copy, Debug)]
pub struct BeginTxn {
    pub token: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct TxnBegun {
    pub token: u64,
    pub txn: TxnId,
}

/// Commit: the driver reports, per ADP it touched, the highest LSN its
/// inserts reached there; the TMF must flush each trail through that point
/// and then harden its own commit record.
#[derive(Clone, Debug)]
pub struct CommitTxn {
    pub txn: TxnId,
    pub flush_points: Vec<(String, Lsn)>,
    /// DP2s involved (for post-commit lock release).
    pub involved_dp2: Vec<String>,
}

#[derive(Clone, Copy, Debug)]
pub struct TxnCommitted {
    pub txn: TxnId,
}

/// Abort: undo at every involved DP2, then release.
#[derive(Clone, Debug)]
pub struct AbortTxn {
    pub txn: TxnId,
    pub involved_dp2: Vec<String>,
}

#[derive(Clone, Copy, Debug)]
pub struct TxnAborted {
    pub txn: TxnId,
}

// ---------------------------------------------------------------------
// Driver ↔ DP2
// ---------------------------------------------------------------------

/// Insert a record. `body` is the stored payload; `virtual_len` is the
/// record's logical size for timing (4096 in the hot-stock benchmark).
#[derive(Clone, Debug)]
pub struct InsertReq {
    pub txn: TxnId,
    pub partition: PartitionId,
    pub key: u64,
    pub body: Bytes,
    pub virtual_len: u32,
    pub token: u64,
}

/// Outcome of an insert.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InsertResult {
    /// Applied; audit delta reached the named ADP at the given LSN.
    Ok { adp: String, lsn: Lsn },
    /// Lock conflict resolved against this transaction.
    Deadlock,
    /// Partition not owned by this DP2 (routing bug).
    WrongPartition,
}

#[derive(Clone, Debug)]
pub struct InsertDone {
    pub txn: TxnId,
    pub token: u64,
    pub result: InsertResult,
    /// The audit delta was already durable when its append was
    /// acknowledged ([`AppendDone::is_durable`]): the commit needs no flush
    /// point for this insert. Always false for a failed insert.
    pub durable: bool,
}

/// Point read of a record (`txnkit`'s end-to-end tests read back what
/// they inserted).
#[derive(Clone, Debug)]
pub struct ReadReq {
    pub partition: PartitionId,
    pub key: u64,
    pub token: u64,
}

#[derive(Clone, Debug)]
pub struct ReadDone {
    pub token: u64,
    /// `(virtual_len, crc)` of the stored record, if present.
    pub found: Option<(u32, u32)>,
}

// ---------------------------------------------------------------------
// TMF ↔ TMF (cross-shard two-phase commit)
// ---------------------------------------------------------------------

/// Coordinator → participant TMF: harden this transaction's local work.
/// The participant flushes its data trails through `flush_points`, appends
/// and flushes a `Prepared` record to its own master trail, then answers
/// with [`PrepareAck`]. Idempotent: a retried prepare for an
/// already-durable transaction re-acks immediately.
#[derive(Clone, Debug)]
pub struct PrepareTxn {
    pub txn: TxnId,
    /// Coordinator TMF process name (for the ack and as documentation of
    /// which trail holds the decision).
    pub coord: String,
    /// Flush points on this shard's ADPs only.
    pub flush_points: Vec<(String, Lsn)>,
    /// This shard's DP2s involved (resolved on decision delivery).
    pub involved_dp2: Vec<String>,
    /// Coordinator's sub-operation token, echoed back.
    pub token: u64,
}

/// Participant → coordinator: the shard's data and its `Prepared` record
/// are durable; the participant is now in-doubt until a decision arrives.
#[derive(Clone, Copy, Debug)]
pub struct PrepareAck {
    pub txn: TxnId,
    pub token: u64,
}

/// Coordinator → participant: the globally-durable outcome. The
/// participant logs a local outcome record, resolves its DP2s, forgets the
/// prepared state and acks. Retried by the coordinator until acked.
#[derive(Clone, Copy, Debug)]
pub struct DecisionTxn {
    pub txn: TxnId,
    pub committed: bool,
    pub token: u64,
}

/// Participant → coordinator: decision applied (or already forgotten —
/// duplicate decisions ack too).
#[derive(Clone, Copy, Debug)]
pub struct DecisionAck {
    pub token: u64,
}

// ---------------------------------------------------------------------
// TMF ↔ DP2 (post-commit/abort resolution)
// ---------------------------------------------------------------------

/// Tell a DP2 a transaction resolved; it releases locks (and undoes the
/// transaction's effects when `committed == false`).
#[derive(Clone, Copy, Debug)]
pub struct TxnResolved {
    pub txn: TxnId,
    pub committed: bool,
}

// ---------------------------------------------------------------------
// DP2/TMF ↔ ADP
// ---------------------------------------------------------------------

/// Append encoded audit records to the trail. Whether the ack already
/// proves them durable is the backend's to say, in [`AppendDone`].
#[derive(Clone, Debug)]
pub struct AuditAppend {
    pub records: Bytes,
    /// Trail bytes these records represent for timing (≥ `records.len()`).
    pub virtual_len: u32,
    pub token: u64,
}

/// The append's assigned trail position: records occupy
/// `[lsn_start, lsn_end)`, and the trail was durable through
/// `durable_upto` when the ack left. An ack whose watermark covers its own
/// `lsn_end` *is* the durability proof (a PM trail releases acks only from
/// a published watermark); otherwise durability requires a [`FlushReq`]
/// through `lsn_end` (the buffered disk trail).
#[derive(Clone, Copy, Debug)]
pub struct AppendDone {
    pub token: u64,
    pub lsn_start: Lsn,
    pub lsn_end: Lsn,
    pub durable_upto: Lsn,
}

impl AppendDone {
    /// Does this ack already prove its own records durable? A `FlushReq`
    /// through `lsn_end` would be answered at once from the same
    /// watermark, so the requester may skip it.
    pub fn is_durable(&self) -> bool {
        self.durable_upto >= self.lsn_end
    }
}

/// Make the trail durable through `upto`.
#[derive(Clone, Copy, Debug)]
pub struct FlushReq {
    pub upto: Lsn,
    pub token: u64,
}

/// The trail is durable through `durable_upto` (≥ the requested point).
#[derive(Clone, Copy, Debug)]
pub struct FlushDone {
    pub token: u64,
    pub durable_upto: Lsn,
}

/// Ask an ADP to push [`TrailAdvance`] notifications to the sender every
/// time its durable watermark moves — the eager geo-replication hook. A
/// subscription survives for the primary's lifetime; `tag` is echoed in
/// every notification so one subscriber can tell its partitions apart.
#[derive(Clone, Copy, Debug)]
pub struct SubscribeTrail {
    pub tag: u64,
}

/// The subscribed trail's durable watermark advanced (coalesced: one
/// notification per publication, not per append).
#[derive(Clone, Copy, Debug)]
pub struct TrailAdvance {
    pub tag: u64,
    pub durable_upto: Lsn,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_compactly() {
        assert_eq!(format!("{:?}", TxnId(7)), "txn7");
        assert_eq!(format!("{:?}", Lsn(1024)), "lsn1024");
    }

    #[test]
    fn lsn_orders() {
        assert!(Lsn(5) < Lsn(6));
        assert_eq!(Lsn::default(), Lsn(0));
    }

    #[test]
    fn audit_partition_is_stable_and_in_range() {
        for t in 0..1000u64 {
            assert_eq!(TxnId(t).audit_partition(1), 0);
            let p = TxnId(t).audit_partition(4);
            assert!(p < 4);
            assert_eq!(p, TxnId(t).audit_partition(4), "stable per txn");
        }
    }

    #[test]
    fn audit_partition_spreads_sequential_txns() {
        let n = 4;
        let mut counts = vec![0u32; n];
        for t in 0..4000u64 {
            counts[TxnId(t).audit_partition(n)] += 1;
        }
        for (p, c) in counts.iter().enumerate() {
            assert!(
                (600..=1400).contains(c),
                "partition {p} got {c} of 4000 txns"
            );
        }
    }
}
