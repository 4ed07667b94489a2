//! One-call installation of the PM subsystem (§4.1's three pieces).

use npmu::{Npmu, NpmuConfig, NpmuHandle};
use nsk::machine::{CpuId, SharedMachine};
use pmm::{install_pmm_pool, PmmConfig, PmmHandle};
use simcore::{DurableStore, Sim};

/// Handles to an installed scale-out PM pool.
pub struct PmPoolSystem {
    /// Every member's mirrored NPMU pair, in pool order.
    pub volumes: Vec<(NpmuHandle, NpmuHandle)>,
    pub pmm: PmmHandle,
    /// Process name clients pass to `PmLib::new`.
    pub pmm_name: String,
}

/// Install a scale-out PM pool: `n_volumes` mirrored NPMU pairs and the
/// `$PMM-<prefix>` process pair that manages them as one namespace.
/// Member `v`'s devices are named `<prefix><v>-a` / `<prefix><v>-b` —
/// a 1-volume pool's are plain `<prefix>-a` / `<prefix>-b`. Device memory
/// persists in `store` under `npmu:<device name>` (durable for hardware
/// devices, volatile for PMPs), so a rebuilt simulation recovers the pool.
#[allow(clippy::too_many_arguments)]
pub fn install_pm_pool(
    sim: &mut Sim,
    store: &mut DurableStore,
    machine: &SharedMachine,
    prefix: &str,
    device: NpmuConfig,
    n_volumes: u32,
    primary_cpu: CpuId,
    backup_cpu: Option<CpuId>,
) -> PmPoolSystem {
    let net = machine.lock().net.clone();
    let n = n_volumes.max(1);
    let mut volumes = Vec::with_capacity(n as usize);
    for v in 0..n {
        let (an, bn) = if n == 1 {
            (format!("{prefix}-a"), format!("{prefix}-b"))
        } else {
            (format!("{prefix}{v}-a"), format!("{prefix}{v}-b"))
        };
        let dev = device.clone().with_volume(v);
        let a = Npmu::install(sim, store, &net, Some(machine), &an, dev.clone());
        let b = Npmu::install(sim, store, &net, Some(machine), &bn, dev);
        volumes.push((a, b));
    }
    let pmm_name = format!("$PMM-{prefix}");
    let pmm = install_pmm_pool(
        sim,
        machine,
        &pmm_name,
        &volumes,
        primary_cpu,
        backup_cpu,
        PmmConfig::default(),
    );
    PmPoolSystem {
        volumes,
        pmm,
        pmm_name,
    }
}

/// Install §4.1's three pieces — one mirrored NPMU pair and its PMM
/// process pair: the one-volume [`install_pm_pool`].
pub fn install_pm_system(
    sim: &mut Sim,
    store: &mut DurableStore,
    machine: &SharedMachine,
    prefix: &str,
    device: NpmuConfig,
    primary_cpu: CpuId,
    backup_cpu: Option<CpuId>,
) -> PmPoolSystem {
    install_pm_pool(
        sim,
        store,
        machine,
        prefix,
        device,
        1,
        primary_cpu,
        backup_cpu,
    )
}

/// Install `partitions` independent audit-trail process pairs (`$ADP0`,
/// `$ADP1`, …) over an already-installed PM pool's PMM namespace. Each
/// partition owns its own trail region `adp{i}.audit` (one extent,
/// capacity-balanced by the PMM, so N trails land one per member on an
/// N-member pool), with primaries round-robined across `cpus` worker CPUs.
/// Returns the partition process names in partition order; route work to
/// them with [`txnkit::TxnId::audit_partition`].
#[allow(clippy::too_many_arguments)]
pub fn install_audit_partitions(
    sim: &mut Sim,
    machine: &SharedMachine,
    pmm_name: &str,
    partitions: u32,
    cpus: u32,
    region_len: u64,
    backups: bool,
    cfg: txnkit::TxnConfig,
    stats: txnkit::SharedTxnStats,
) -> Vec<String> {
    txnkit::install_adp_pairs(
        sim,
        machine,
        partitions.max(1),
        0,
        cpus.max(1),
        backups,
        |_, i| {
            let backend = txnkit::AuditBackend::Pm {
                pmm: pmm_name.to_string(),
                region: format!("adp{i}.audit"),
                region_len,
            };
            (format!("$ADP{i}"), backend)
        },
        &cfg,
        &stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsk::machine::{Machine, MachineConfig};
    use simnet::{FabricConfig, Network};

    #[test]
    fn installs_and_registers() {
        let mut sim = Sim::with_seed(1);
        let mut store = DurableStore::new();
        let net = Network::new(FabricConfig::default());
        let machine = Machine::new(MachineConfig::default(), net);
        let sys = install_pm_system(
            &mut sim,
            &mut store,
            &machine,
            "pm0",
            NpmuConfig::hardware(1 << 20),
            CpuId(0),
            Some(CpuId(1)),
        );
        assert!(machine.lock().resolve(&sys.pmm_name).is_some());
        assert!(machine.lock().resolve_backup(&sys.pmm_name).is_some());
        assert!(store.contains("npmu:pm0-a"));
        assert!(store.contains("npmu:pm0-b"));
        // Metadata windows were programmed on both devices.
        let (a, b) = &sys.volumes[0];
        assert_eq!(a.att.lock().len(), 1);
        assert_eq!(b.att.lock().len(), 1);
    }

    #[test]
    fn audit_partitions_install_as_pairs() {
        let mut sim = Sim::with_seed(2);
        let mut store = DurableStore::new();
        let net = Network::new(FabricConfig::default());
        let machine = Machine::new(
            MachineConfig {
                cpus: 5,
                ..MachineConfig::default()
            },
            net,
        );
        let pool = install_pm_pool(
            &mut sim,
            &mut store,
            &machine,
            "pm",
            NpmuConfig::hardware(64 << 20),
            4,
            CpuId(4),
            Some(CpuId(0)),
        );
        let cfg = txnkit::TxnConfig::pm_enabled();
        let stats = txnkit::stats::shared();
        let names = install_audit_partitions(
            &mut sim,
            &machine,
            &pool.pmm_name,
            4,
            4,
            2 << 20,
            true,
            cfg,
            stats,
        );
        assert_eq!(names, ["$ADP0", "$ADP1", "$ADP2", "$ADP3"]);
        for n in &names {
            assert!(machine.lock().resolve(n).is_some(), "{n} primary");
            assert!(machine.lock().resolve_backup(n).is_some(), "{n} backup");
        }
    }
}
