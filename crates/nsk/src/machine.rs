//! The machine model: CPUs, the process registry, and compute accounting.

use simcore::hash::FastMap;
use simcore::{ActorId, Shared, Sim};
use simnet::{EndpointId, SharedNetwork};

/// A processor within the node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CpuId(pub u32);

impl std::fmt::Debug for CpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu{}", self.0)
    }
}

#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Number of CPUs in the node (NonStop: up to 16 per node).
    pub cpus: u32,
    /// Latency of a same-CPU interprocess message, ns.
    pub local_ipc_ns: u64,
    /// Failure detection delay before watchers are told a process/CPU
    /// died. Paper §4: "a backup process takes over from its primary in a
    /// second or less" — detection is the dominant part of that budget.
    pub detection_delay_ns: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cpus: 4,
            local_ipc_ns: 5_000,
            detection_delay_ns: 400_000_000, // 400 ms
        }
    }
}

/// One side of a process (primary or backup) as registered.
#[derive(Clone, Copy, Debug)]
pub struct ProcSide {
    pub actor: ActorId,
    pub ep: EndpointId,
    pub cpu: CpuId,
}

struct ProcEntry {
    primary: ProcSide,
    backup: Option<ProcSide>,
}

/// What a watcher wants to hear about.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum WatchTarget {
    Process(String),
    Cpu(u32),
}

/// The node: registry + topology + accounting. Shared by every process
/// actor in the simulation.
pub struct Machine {
    pub cfg: MachineConfig,
    pub net: SharedNetwork,
    cpu_alive: Vec<bool>,
    cpu_busy_ns: Vec<u64>,
    cpu_work_total_ns: Vec<u64>,
    procs: FastMap<String, ProcEntry>,
    ep_cpu: FastMap<EndpointId, CpuId>,
    watchers: Vec<(WatchTarget, ActorId)>,
}

pub type SharedMachine = Shared<Machine>;

impl Machine {
    pub fn new(cfg: MachineConfig, net: SharedNetwork) -> SharedMachine {
        let cpus = cfg.cpus as usize;
        Shared::new(Machine {
            cfg,
            net,
            cpu_alive: vec![true; cpus],
            cpu_busy_ns: vec![0; cpus],
            cpu_work_total_ns: vec![0; cpus],
            procs: FastMap::default(),
            ep_cpu: FastMap::default(),
            watchers: Vec::new(),
        })
    }

    /// Enter `side` in the registry as the primary of process `name`, or
    /// as its backup (the primary comes first).
    fn enter(&mut self, name: &str, side: ProcSide, backup: bool) {
        self.ep_cpu.insert(side.ep, side.cpu);
        if backup {
            let entry = self
                .procs
                .get_mut(name)
                .expect("backup registered before primary");
            entry.backup = Some(side);
        } else {
            self.procs
                .entry(name.to_string())
                .and_modify(|e| e.primary = side)
                .or_insert(ProcEntry {
                    primary: side,
                    backup: None,
                });
        }
    }

    /// Resolve a process name to its current primary.
    pub fn resolve(&self, name: &str) -> Option<ProcSide> {
        self.procs.get(name).map(|e| e.primary)
    }

    pub fn resolve_backup(&self, name: &str) -> Option<ProcSide> {
        self.procs.get(name).and_then(|e| e.backup)
    }

    /// Promote the backup of `name` to primary (takeover). Returns the new
    /// primary side. The old primary's endpoint is detached.
    pub fn promote_backup(&mut self, name: &str) -> Option<ProcSide> {
        let entry = self.procs.get_mut(name)?;
        let backup = entry.backup.take()?;
        let old = entry.primary;
        entry.primary = backup;
        self.net.lock().detach(old.ep);
        Some(backup)
    }

    /// The registry's view of process `name`, for a stalled run's report:
    /// each side's actor, endpoint and CPU, and whether that CPU is up.
    pub fn describe(&self, name: &str) -> Option<String> {
        let e = self.procs.get(name)?;
        let side = |s: &ProcSide| {
            let up = if self.cpu_alive(s.cpu) { "up" } else { "down" };
            format!("{:?} {:?} on cpu {} ({up})", s.actor, s.ep, s.cpu.0)
        };
        let backup = e.backup.as_ref().map_or("none".into(), side);
        Some(format!("primary {}, backup {backup}", side(&e.primary)))
    }

    /// Which CPU hosts this endpoint (used for access-control checks).
    pub fn cpu_of_ep(&self, ep: EndpointId) -> Option<CpuId> {
        self.ep_cpu.get(&ep).copied()
    }

    pub fn cpu_alive(&self, cpu: CpuId) -> bool {
        self.cpu_alive.get(cpu.0 as usize).copied().unwrap_or(false)
    }

    pub fn mark_cpu_dead(&mut self, cpu: CpuId) {
        if let Some(a) = self.cpu_alive.get_mut(cpu.0 as usize) {
            *a = false;
        }
    }

    /// Every process (name, side, is_primary) hosted on `cpu`.
    pub fn procs_on_cpu(&self, cpu: CpuId) -> Vec<(String, ProcSide, bool)> {
        let mut v = Vec::new();
        for (name, e) in &self.procs {
            if e.primary.cpu == cpu {
                v.push((name.clone(), e.primary, true));
            }
            if let Some(b) = e.backup {
                if b.cpu == cpu {
                    v.push((name.clone(), b, false));
                }
            }
        }
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Remove a dead side from the registry (so resolve stops returning it
    /// until a takeover re-registers). Returns true if it was the primary.
    pub fn mark_process_dead(&mut self, name: &str, actor: ActorId) -> bool {
        if let Some(e) = self.procs.get_mut(name) {
            if e.primary.actor == actor {
                self.net.lock().detach(e.primary.ep);
                return true;
            }
            if let Some(b) = e.backup {
                if b.actor == actor {
                    self.net.lock().detach(b.ep);
                    e.backup = None;
                }
            }
        }
        false
    }

    /// Account `cost_ns` of compute on `cpu` starting at `now_ns`; returns
    /// the queueing delay before the work can begin (a CPU serializes its
    /// handlers' work).
    pub fn cpu_work(&mut self, cpu: CpuId, now_ns: u64, cost_ns: u64) -> u64 {
        let i = cpu.0 as usize;
        self.cpu_work_total_ns[i] += cost_ns;
        let start = self.cpu_busy_ns[i].max(now_ns);
        self.cpu_busy_ns[i] = start + cost_ns;
        start - now_ns
    }

    /// Total compute consumed per CPU (utilization reporting).
    pub fn cpu_work_total(&self, cpu: CpuId) -> u64 {
        self.cpu_work_total_ns[cpu.0 as usize]
    }

    pub fn watch(&mut self, target: WatchTarget, watcher: ActorId) {
        self.watchers.push((target, watcher));
    }

    pub fn watchers_of(&self, target: &WatchTarget) -> Vec<ActorId> {
        self.watchers
            .iter()
            .filter(|(t, _)| t == target)
            .map(|(_, w)| *w)
            .collect()
    }
}

/// Convenience: spawn an actor produced by `make` (which receives the
/// endpoint it will own) and register it as primary of `name` on `cpu`.
///
/// The endpoint is allocated bound to a placeholder and re-bound once the
/// actor id is known — the same two-phase wiring the simnet tests use.
pub fn install_primary<F>(
    sim: &mut Sim,
    machine: &SharedMachine,
    name: &str,
    cpu: CpuId,
    make: F,
) -> (ActorId, EndpointId)
where
    F: FnOnce(EndpointId) -> Box<dyn simcore::Actor>,
{
    install(sim, machine, name, cpu, make, false)
}

/// As [`install_primary`], for the backup half of a pair.
pub fn install_backup<F>(
    sim: &mut Sim,
    machine: &SharedMachine,
    name: &str,
    cpu: CpuId,
    make: F,
) -> (ActorId, EndpointId)
where
    F: FnOnce(EndpointId) -> Box<dyn simcore::Actor>,
{
    install(sim, machine, name, cpu, make, true)
}

fn install<F>(
    sim: &mut Sim,
    machine: &SharedMachine,
    name: &str,
    cpu: CpuId,
    make: F,
    backup: bool,
) -> (ActorId, EndpointId)
where
    F: FnOnce(EndpointId) -> Box<dyn simcore::Actor>,
{
    let net = machine.lock().net.clone();
    let ep = net.lock().attach(ActorId(u32::MAX));
    let actor = sim.spawn_dyn(make(ep));
    net.lock().rebind(ep, actor);
    machine
        .lock()
        .enter(name, ProcSide { actor, ep, cpu }, backup);
    (actor, ep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{FabricConfig, Network};

    fn machine() -> SharedMachine {
        let net = Network::new(FabricConfig::default());
        Machine::new(MachineConfig::default(), net)
    }

    struct Idle;
    impl simcore::Actor for Idle {
        fn handle(&mut self, _ctx: &mut simcore::Ctx<'_>, _msg: simcore::Msg) {}
    }

    /// Install an idle primary of `name` on `cpu`, or its backup.
    fn idle(
        sim: &mut Sim,
        m: &SharedMachine,
        name: &str,
        cpu: u32,
        backup: bool,
    ) -> (ActorId, EndpointId) {
        let make = |_| Box::new(Idle) as Box<dyn simcore::Actor>;
        install(sim, m, name, CpuId(cpu), make, backup)
    }

    #[test]
    fn register_and_resolve() {
        let (m, mut sim) = (machine(), Sim::with_seed(1));
        let (a, ep) = idle(&mut sim, &m, "$adp0", 0, false);
        let m = m.lock();
        assert_eq!(m.resolve("$adp0").unwrap().actor, a);
        assert_eq!(m.cpu_of_ep(ep), Some(CpuId(0)));
        assert!(m.resolve("$nope").is_none());
    }

    #[test]
    fn promote_backup_swaps_primary() {
        let (m, mut sim) = (machine(), Sim::with_seed(1));
        idle(&mut sim, &m, "$pmm", 0, false);
        let (b, _) = idle(&mut sim, &m, "$pmm", 1, true);
        let mut m = m.lock();
        let newp = m.promote_backup("$pmm").unwrap();
        assert_eq!(newp.actor, b);
        assert_eq!(m.resolve("$pmm").unwrap().actor, b);
        assert!(m.resolve_backup("$pmm").is_none());
        // Second promote has no backup to promote.
        assert!(m.promote_backup("$pmm").is_none());
    }

    #[test]
    fn old_primary_endpoint_detached_on_promote() {
        let (m, mut sim) = (machine(), Sim::with_seed(1));
        let (_, old_ep) = idle(&mut sim, &m, "$p", 0, false);
        idle(&mut sim, &m, "$p", 1, true);
        let net = m.lock().net.clone();
        m.lock().promote_backup("$p");
        assert_eq!(net.lock().actor_of(old_ep), None);
    }

    #[test]
    fn cpu_work_serializes_per_cpu() {
        let m = machine();
        let mut m = m.lock();
        assert_eq!(m.cpu_work(CpuId(0), 0, 100), 0);
        assert_eq!(m.cpu_work(CpuId(0), 0, 100), 100);
        assert_eq!(m.cpu_work(CpuId(1), 0, 100), 0, "other cpu independent");
        assert_eq!(m.cpu_work_total(CpuId(0)), 200);
    }

    #[test]
    fn procs_on_cpu_lists_both_sides() {
        let (m, mut sim) = (machine(), Sim::with_seed(1));
        idle(&mut sim, &m, "$a", 0, false);
        idle(&mut sim, &m, "$a", 1, true);
        idle(&mut sim, &m, "$b", 0, false);
        let m = m.lock();
        let on0 = m.procs_on_cpu(CpuId(0));
        assert_eq!(on0.len(), 2);
        assert!(on0.iter().all(|(_, _, primary)| *primary));
        let on1 = m.procs_on_cpu(CpuId(1));
        assert_eq!(on1.len(), 1);
        assert!(!on1[0].2);
    }

    #[test]
    fn watchers_filter_by_target() {
        let m = machine();
        let mut m = m.lock();
        m.watch(WatchTarget::Process("$x".into()), ActorId(9));
        m.watch(WatchTarget::Cpu(2), ActorId(8));
        assert_eq!(
            m.watchers_of(&WatchTarget::Process("$x".into())),
            vec![ActorId(9)]
        );
        assert_eq!(m.watchers_of(&WatchTarget::Cpu(2)), vec![ActorId(8)]);
        assert!(m.watchers_of(&WatchTarget::Cpu(3)).is_empty());
    }

    #[test]
    fn mark_process_dead_detaches() {
        let (m, mut sim) = (machine(), Sim::with_seed(1));
        let (a, _) = idle(&mut sim, &m, "$p", 0, false);
        let (b, ep_b) = idle(&mut sim, &m, "$p", 1, true);
        let net = m.lock().net.clone();
        let was_primary = m.lock().mark_process_dead("$p", b);
        assert!(!was_primary);
        assert_eq!(net.lock().actor_of(ep_b), None);
        assert!(m.lock().resolve_backup("$p").is_none());
        let was_primary = m.lock().mark_process_dead("$p", a);
        assert!(was_primary);
    }
}
