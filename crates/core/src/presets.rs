//! Named configurations matching the paper's evaluation platform.

use txnkit::scenario::{AuditMode, ClusterParams, OdsParams};

/// The §4.3 baseline: a 4-processor S86000 with disk audit volumes
/// ("we used 4 auxiliary audit volumes, one for each CPU"), 4 database
/// files over 16 data volumes, full process-pair checkpointing.
pub fn s86000_baseline(seed: u64) -> OdsParams {
    OdsParams::baseline(seed)
}

/// The §4.3 PM configuration: "For the PM-enabled experiments we ran a
/// PMP on a 5th CPU, and each ADP used a separate region of the PMP's
/// memory."
pub fn s86000_pm(seed: u64) -> OdsParams {
    OdsParams::pm(seed)
}

/// PM configuration on hardware NPMUs rather than the PMP prototype
/// (§4.2 verified hardware is "actually slightly faster").
pub fn s86000_pm_hardware(seed: u64) -> OdsParams {
    OdsParams {
        audit: AuditMode::HardwareNpmu,
        ..OdsParams::pm(seed)
    }
}

/// Scale-out PM configuration: the same PM-enabled node backed by a pool
/// of `volumes` mirrored hardware NPMU pairs behind one PMM namespace
/// (ROADMAP scale-out item; 1, 2 and 4 are the evaluated points).
pub fn s86000_pm_pool(seed: u64, volumes: u32) -> OdsParams {
    OdsParams {
        audit: AuditMode::HardwareNpmu,
        ..OdsParams::pm_pool(seed, volumes)
    }
}

/// Sharded multi-node cluster: `shards` PM-enabled S86000 nodes (each
/// the [`s86000_pm_hardware`] topology) joined by the fabric, with
/// cross-shard transactions coordinated by 2PC between the shard TMFs.
/// `shards` must be a power of two (shard routing masks the key hash).
pub fn s86000_cluster(seed: u64, shards: u32) -> ClusterParams {
    ClusterParams {
        shards,
        base: s86000_pm_hardware(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_preset_is_pm_per_shard() {
        let c = s86000_cluster(1, 4);
        assert_eq!(c.shards, 4);
        assert_eq!(c.base.audit, AuditMode::HardwareNpmu);
        assert_eq!(c.base.cpus, 4);
    }

    #[test]
    fn presets_match_paper_topology() {
        let b = s86000_baseline(1);
        assert_eq!(b.cpus, 4);
        assert_eq!(b.files, 4);
        assert_eq!(b.parts_per_file, 4);
        assert_eq!(b.data_volumes_per_dp2 * b.cpus, 16, "16 data volumes");
        assert_eq!(b.audit, AuditMode::Disk);

        let p = s86000_pm(1);
        assert_eq!(p.audit, AuditMode::Pmp);

        let h = s86000_pm_hardware(1);
        assert_eq!(h.audit, AuditMode::HardwareNpmu);

        let pool = s86000_pm_pool(1, 4);
        assert_eq!(pool.pm_volumes, 4);
        assert_eq!(pool.audit, AuditMode::HardwareNpmu);
        assert_eq!(
            pool.audit_partitions, 4,
            "pool presets scale audit partitions with member volumes"
        );
        assert_eq!(
            s86000_pm(1).audit_partitions,
            0,
            "single-volume presets keep the per-CPU default"
        );
        assert_eq!(s86000_pm_pool(1, 0).pm_volumes, 1, "clamped to 1");
        assert_eq!(s86000_pm_pool(1, 0).audit_partitions, 1);
    }
}
