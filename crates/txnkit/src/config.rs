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
    /// TMF checkpoints commit decisions to its backup.
    pub tmf_checkpoint: bool,
    /// Wire size of a checkpoint message beyond the record payload, bytes.
    pub checkpoint_overhead_bytes: u32,
    /// Size of the commit/abort record in the master trail, bytes.
    pub commit_record_bytes: u32,
    /// Group-commit window, ns: a flush is held until the oldest commit
    /// waiter has waited this long (or the buffer passes
    /// `group_commit_bytes`), amortizing the mechanical cost of the log
    /// device across concurrent commits. The paper's PM thesis is exactly
    /// that this trade disappears: PM flushes immediately.
    pub group_commit_window_ns: u64,
    /// Buffer size that triggers an immediate flush regardless of window.
    pub group_commit_bytes: u64,
    /// Driver/application CPU cost to issue one insert (client-side
    /// processing: building the request, object-relational glue — §2's
    /// "issue rate of a single application server thread").
    pub issue_cpu_ns: u64,
    /// Lock wait limit before a waiter is victimized, ns (coarse deadlock
    /// backstop on top of cycle detection). In a sharded cluster this is
    /// also the backstop for *distributed* deadlocks — wait cycles that
    /// thread through two shards' lock managers, which no single shard's
    /// cycle detector can see. The victim aborts before its coordinator
    /// prepares, so the timeout never unwinds a prepared participant.
    pub lock_timeout_ns: u64,
    /// DP2 dirty-page destage interval (background writes to data
    /// volumes), ns.
    pub destage_interval_ns: u64,
    /// TMF appends a fuzzy CheckpointMark (listing in-flight txns) to the
    /// master trail every this many commits — the recovery scan's
    /// starting hint (0 disables).
    pub checkpoint_mark_every: u64,
    /// Base delay before the TMF (or a DP2) re-drives an unanswered
    /// flush/append sub-operation — typically one lost to an ADP
    /// takeover, ns. Doubles per attempt up to `sub_retry_cap_ns`.
    pub sub_retry_base_ns: u64,
    /// Ceiling on the sub-operation retry delay, ns.
    pub sub_retry_cap_ns: u64,
    /// Base delay before an ADP re-tries its PM region create/open RPC
    /// at startup or takeover, ns. Doubles per attempt up to
    /// `region_retry_cap_ns`.
    pub region_retry_base_ns: u64,
    /// Ceiling on the region-RPC retry delay, ns.
    pub region_retry_cap_ns: u64,
    /// Remote-persistence mode the ADP's PM client runs in (see
    /// [`simnet::PersistMode`]). The default — and `pm_enabled()` — is
    /// the honest `PersistFlush`: a commit ack is only released once the
    /// trail bytes AND the control-cell watermark are proven on the NPMU
    /// array, not merely acked into its volatile ingress buffer.
    /// `NicAck` restores the paper's optimistic assumption (and is what
    /// the crash-point fuzzer uses to demonstrate acked-commit loss).
    pub pm_persist_mode: simnet::PersistMode,
    /// Fabric traffic class for commit-critical PM ops: the ADP's trail
    /// chains (each carries the control cell that releases commit acks)
    /// and its boot/takeover reads. Pinned through to the fabric's
    /// per-class schedulers when QoS is enabled.
    pub pm_commit_class: simnet::TrafficClass,
    /// Fabric traffic class for the DP2→ADP delta appends, which carry
    /// full record images: bandwidth-bearing but still latency-relevant,
    /// so they ride the middle `Audit` class by default, above background
    /// `Bulk` movers.
    pub pm_audit_class: simnet::TrafficClass,
}

/// Capped exponential backoff: `base * 2^attempt`, clamped to `cap`.
fn backoff_ns(base: u64, cap: u64, attempt: u32) -> u64 {
    base.saturating_mul(1u64 << attempt.min(32)).min(cap)
}

impl Default for TxnConfig {
    fn default() -> Self {
        TxnConfig {
            insert_cpu_ns: 250_000,
            append_cpu_ns: 20_000,
            commit_cpu_ns: 40_000,
            group_commit_window_ns: 8_000_000,
            group_commit_bytes: 192 * 1024,
            issue_cpu_ns: 1_000_000,
            dp2_checkpoint: true,
            tmf_checkpoint: true,
            checkpoint_overhead_bytes: 64,
            commit_record_bytes: 64,
            lock_timeout_ns: 2_000_000_000,
            destage_interval_ns: 200_000_000,
            checkpoint_mark_every: 64,
            sub_retry_base_ns: 900_000_000,
            sub_retry_cap_ns: 7_200_000_000,
            region_retry_base_ns: 500_000_000,
            region_retry_cap_ns: 4_000_000_000,
            pm_persist_mode: simnet::PersistMode::PersistFlush,
            pm_commit_class: simnet::TrafficClass::Commit,
            pm_audit_class: simnet::TrafficClass::Audit,
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

    /// Delay before retrying a flush/append sub-operation for the
    /// `attempt`-th time (0 = the first, armed when the op is issued).
    pub fn sub_retry_delay(&self, attempt: u32) -> simcore::SimDuration {
        simcore::SimDuration::from_nanos(backoff_ns(
            self.sub_retry_base_ns,
            self.sub_retry_cap_ns,
            attempt,
        ))
    }

    /// Delay before retrying the ADP's region create/open RPC.
    pub fn region_retry_delay(&self, attempt: u32) -> simcore::SimDuration {
        simcore::SimDuration::from_nanos(backoff_ns(
            self.region_retry_base_ns,
            self.region_retry_cap_ns,
            attempt,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_full_process_pair_discipline() {
        let c = TxnConfig::default();
        assert!(c.dp2_checkpoint && c.tmf_checkpoint);
    }

    #[test]
    fn pm_profile_keeps_dp2_and_tmf_checkpoints_and_drops_group_commit() {
        let c = TxnConfig::pm_enabled();
        assert!(c.dp2_checkpoint && c.tmf_checkpoint);
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
        let c = TxnConfig::default();
        assert_eq!(c.sub_retry_delay(0).as_nanos(), 900_000_000);
        assert_eq!(c.sub_retry_delay(1).as_nanos(), 1_800_000_000);
        assert_eq!(c.sub_retry_delay(2).as_nanos(), 3_600_000_000);
        assert_eq!(c.sub_retry_delay(3).as_nanos(), 7_200_000_000);
        assert_eq!(c.sub_retry_delay(10).as_nanos(), 7_200_000_000);
        assert_eq!(c.sub_retry_delay(u32::MAX).as_nanos(), 7_200_000_000);
        assert_eq!(c.region_retry_delay(0).as_nanos(), 500_000_000);
        assert_eq!(c.region_retry_delay(3).as_nanos(), 4_000_000_000);
    }
}
