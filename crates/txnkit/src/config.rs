//! Cost model for the transaction path, calibrated to 2004-era MIPS
//! processors running a full database insert path (message handling, lock
//! acquisition, index maintenance, audit generation).

use nsk::requests::Backoff;
use simcore::SimDuration;

#[derive(Clone, Debug)]
pub struct TxnConfig {
    /// Server-side CPU cost of one insert at the DP2, ns.
    pub insert_cpu_ns: u64,
    /// CPU cost of buffering an audit append at the ADP, ns.
    pub append_cpu_ns: u64,
    /// CPU cost of commit coordination at the TMF, ns.
    pub commit_cpu_ns: u64,
    /// DP2 checkpoints each insert to its backup before replying
    /// (process-pair discipline; §1.3).
    pub dp2_checkpoint: bool,
    /// Group-commit window, ns: a flush is held until the oldest commit
    /// waiter has waited this long (or the buffer passes the disk log's
    /// `GROUP_COMMIT_BYTES`), amortizing the mechanical cost of the log
    /// device across concurrent commits. The paper's PM thesis is exactly
    /// that this trade disappears: PM flushes immediately.
    pub group_commit_window_ns: u64,
    /// Remote-persistence mode the ADP's PM client runs in (see
    /// [`simnet::PersistMode`]). The default — and `pm_enabled()` — is
    /// the honest `PersistFlush`: a commit ack is only released once the
    /// trail bytes AND the control-cell watermark are proven on the NPMU
    /// array, not merely acked into its volatile ingress buffer.
    /// `NicAck` restores the paper's optimistic assumption (and is what
    /// the recovery matrix's negative control runs to demonstrate
    /// acked-commit loss).
    pub pm_persist_mode: simnet::PersistMode,
}

/// Wire size of a process-pair checkpoint message beyond the record
/// payload it carries, bytes (DP2, TMF and the disk ADP all checkpoint).
pub(crate) const CHECKPOINT_OVERHEAD_BYTES: u32 = 64;

/// Re-drive of an unanswered flush/append sub-operation by the TMF or a
/// DP2 — typically one lost to an ADP takeover: 900 ms, doubling per
/// attempt up to 7.2 s.
pub(crate) const SUB_RETRY: Backoff = Backoff::new(
    SimDuration::from_millis(900),
    SimDuration::from_millis(7_200),
);
/// Re-try of a trail writer's PM region create/open RPC at startup or
/// takeover: 500 ms, doubling per attempt up to 4 s.
pub(crate) const REGION_RETRY: Backoff = Backoff::new(
    SimDuration::from_millis(500),
    SimDuration::from_millis(4_000),
);

impl Default for TxnConfig {
    fn default() -> Self {
        TxnConfig {
            insert_cpu_ns: 250_000,
            append_cpu_ns: 20_000,
            commit_cpu_ns: 40_000,
            group_commit_window_ns: 8_000_000,
            dp2_checkpoint: true,
            pm_persist_mode: simnet::PersistMode::PersistFlush,
        }
    }
}

impl TxnConfig {
    /// The configuration for a PM-enabled ODS per §3.4. The single
    /// synchronous PM write replaces the ADP's checkpoint-to-backup (the
    /// trail itself survives any single process/CPU failure in the
    /// mirrored NPMUs) — structurally: the PM backend has no checkpoint
    /// path at all, so there is nothing to switch off here.
    pub fn pm_enabled() -> Self {
        TxnConfig {
            // PM is "fast enough to support synchronous interfaces":
            // no group-commit delay on the flush path.
            group_commit_window_ns: 0,
            ..TxnConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_process_pair_discipline() {
        assert!(TxnConfig::default().dp2_checkpoint);
    }

    #[test]
    fn pm_profile_keeps_dp2_checkpoints_and_drops_group_commit() {
        let c = TxnConfig::pm_enabled();
        assert!(c.dp2_checkpoint);
        assert_eq!(c.group_commit_window_ns, 0);
    }

    #[test]
    fn persistence_mode_defaults_honest() {
        use simnet::PersistMode;
        assert_eq!(
            TxnConfig::default().pm_persist_mode,
            PersistMode::PersistFlush
        );
        assert_eq!(
            TxnConfig::pm_enabled().pm_persist_mode,
            PersistMode::PersistFlush
        );
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let sub = |attempt| SUB_RETRY.delay(attempt).as_nanos();
        assert_eq!(sub(0), 900_000_000);
        assert_eq!(sub(1), 1_800_000_000);
        assert_eq!(sub(2), 3_600_000_000);
        assert_eq!(sub(3), 7_200_000_000);
        assert_eq!(sub(10), 7_200_000_000);
        assert_eq!(sub(u32::MAX), 7_200_000_000);
        assert_eq!(REGION_RETRY.delay(0).as_nanos(), 500_000_000);
        assert_eq!(REGION_RETRY.delay(3).as_nanos(), 4_000_000_000);
    }
}
