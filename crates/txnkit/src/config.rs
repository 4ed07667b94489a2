//! Cost model for the transaction path, calibrated to 2004-era MIPS
//! processors running a full database insert path (message handling, lock
//! acquisition, index maintenance, audit generation).

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

/// Base delay before the TMF (or a DP2) re-drives an unanswered
/// flush/append sub-operation — typically one lost to an ADP takeover,
/// ns. Doubles per attempt up to [`SUB_RETRY_CAP_NS`].
const SUB_RETRY_BASE_NS: u64 = 900_000_000;
/// Ceiling on the sub-operation retry delay, ns.
const SUB_RETRY_CAP_NS: u64 = 7_200_000_000;
/// Base delay before an ADP re-tries its PM region create/open RPC at
/// startup or takeover, ns. Doubles per attempt up to
/// [`REGION_RETRY_CAP_NS`].
const REGION_RETRY_BASE_NS: u64 = 500_000_000;
/// Ceiling on the region-RPC retry delay, ns.
const REGION_RETRY_CAP_NS: u64 = 4_000_000_000;

/// Capped exponential backoff: `base * 2^attempt`, clamped to `cap`.
fn backoff(base: u64, cap: u64, attempt: u32) -> simcore::SimDuration {
    simcore::SimDuration::from_nanos(base.saturating_mul(1u64 << attempt.min(32)).min(cap))
}

/// Delay before retrying a flush/append sub-operation for the
/// `attempt`-th time (0 = the first, armed when the op is issued).
pub(crate) fn sub_retry_delay(attempt: u32) -> simcore::SimDuration {
    backoff(SUB_RETRY_BASE_NS, SUB_RETRY_CAP_NS, attempt)
}

/// Delay before retrying the ADP's region create/open RPC.
pub(crate) fn region_retry_delay(attempt: u32) -> simcore::SimDuration {
    backoff(REGION_RETRY_BASE_NS, REGION_RETRY_CAP_NS, attempt)
}

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
        assert_eq!(sub_retry_delay(0).as_nanos(), 900_000_000);
        assert_eq!(sub_retry_delay(1).as_nanos(), 1_800_000_000);
        assert_eq!(sub_retry_delay(2).as_nanos(), 3_600_000_000);
        assert_eq!(sub_retry_delay(3).as_nanos(), 7_200_000_000);
        assert_eq!(sub_retry_delay(10).as_nanos(), 7_200_000_000);
        assert_eq!(sub_retry_delay(u32::MAX).as_nanos(), 7_200_000_000);
        assert_eq!(region_retry_delay(0).as_nanos(), 500_000_000);
        assert_eq!(region_retry_delay(3).as_nanos(), 4_000_000_000);
    }
}
