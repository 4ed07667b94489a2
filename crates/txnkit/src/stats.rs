//! Persistence-action and transaction accounting.
//!
//! §3.4 enumerates the baseline's redundant persistence actions for one
//! inserted row: "first from the database writer primary to backup, then
//! as audit 'delta' from the database writer to the log writer, then again
//! from the log writer to its backup, from the database writer to data
//! volumes and from the log writer to log volumes" — five actions, against
//! one synchronous NPMU write. Experiment T2 reproduces that claim from
//! these counters.

use simcore::Histogram;
use simcore::Shared;

#[derive(Default)]
pub struct TxnStats {
    // --- persistence / copy actions (per §3.4 enumeration) ---
    /// Database-writer primary → backup checkpoints.
    pub dbw_checkpoints: u64,
    /// Database-writer → log-writer audit deltas.
    pub audit_deltas: u64,
    /// Log-writer primary → backup checkpoints.
    pub adp_checkpoints: u64,
    /// Database-writer → data-volume writes (destage).
    pub data_volume_writes: u64,
    /// Log-writer → audit-volume (disk) writes.
    pub audit_volume_writes: u64,
    /// Log-writer → persistent-memory writes (one mirrored API call per
    /// appended row = 1 action, per the paper's §3.4 accounting).
    pub pm_writes: u64,
    /// Control-cell (watermark) publications: 16-byte bookkeeping,
    /// amortized across appends; tracked separately and *not* counted as
    /// a per-row persistence action. Every publication rides as the last
    /// link of the chain it publishes, so this equals `pm_batches`; both
    /// names stay for artifact readers.
    pub pm_ctrl_writes: u64,
    /// Write chains the PM ADP posted (one chain may carry many
    /// `pm_writes`, re-drives not counted). The coalescing factor is
    /// `pm_writes / pm_batches`; not a per-row action.
    pub pm_batches: u64,
    /// Trail writes rejected by an engaged device write fence
    /// (`AccessViolation` after a disaster-recovery epoch fence). The
    /// first rejection freezes the PM log: nonzero means this ADP was a
    /// fenced-off old primary.
    pub pm_fenced: u64,
    /// PM writes no mirror half took (both down, unreachable or timed
    /// out) and the ADP therefore re-posted verbatim instead of acking.
    pub pm_redrives: u64,
    /// Trail writes the device rejected for any reason other than a
    /// write fence (`OutOfBounds`): a fault no retry cures. The first
    /// one freezes the PM log, as a fence does.
    pub pm_write_faults: u64,
    /// TMF primary → backup checkpoints.
    pub tmf_checkpoints: u64,
    /// `FlushReq` messages the TMFs sent (data-trail, master-trail and
    /// prepare flushes, re-drives included). An append ack that already
    /// proves its records durable needs none, so a PM trail reads 0 and
    /// the buffered disk trail one per flush point plus one per commit
    /// record.
    pub flush_reqs: u64,

    // --- transaction outcomes ---
    pub txns_committed: u64,
    pub txns_aborted: u64,
    pub inserts: u64,
    pub deadlocks: u64,

    // --- cross-shard two-phase commit ---
    /// Commits that involved at least one remote (participant) shard.
    pub cross_shard_commits: u64,
    /// Participant-side prepares hardened (Prepared record durable).
    pub twopc_prepares: u64,
    /// Participant-side decisions applied (prepared state resolved).
    pub twopc_decisions: u64,
    /// Lock waits victimized by the wait-timeout backstop (distributed
    /// deadlocks are invisible to per-DP2 cycle detection).
    pub lock_timeouts: u64,

    // --- latency ---
    /// Commit-path flush latency as seen by the TMF, ns.
    pub flush_latency: Histogram,
    /// Full transaction response time as recorded by drivers, ns.
    pub txn_response: Histogram,
}

impl TxnStats {
    /// Persistence actions per insert under the baseline enumeration.
    pub fn actions_per_insert(&self) -> f64 {
        if self.inserts == 0 {
            return 0.0;
        }
        let total = self.dbw_checkpoints
            + self.audit_deltas
            + self.adp_checkpoints
            + self.data_volume_writes
            + self.audit_volume_writes
            + self.pm_writes;
        total as f64 / self.inserts as f64
    }
}

pub type SharedTxnStats = Shared<TxnStats>;

pub fn shared() -> SharedTxnStats {
    Shared::new(TxnStats::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actions_per_insert_math() {
        let mut s = TxnStats::default();
        assert_eq!(s.actions_per_insert(), 0.0);
        s.inserts = 10;
        s.dbw_checkpoints = 10;
        s.audit_deltas = 10;
        s.adp_checkpoints = 10;
        s.data_volume_writes = 10;
        s.audit_volume_writes = 10;
        assert!((s.actions_per_insert() - 5.0).abs() < 1e-9);
        // Bookkeeping counters are not per-row persistence actions.
        s.pm_ctrl_writes = 100;
        s.pm_batches = 100;
        assert!((s.actions_per_insert() - 5.0).abs() < 1e-9);
    }
}
