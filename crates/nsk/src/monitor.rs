//! The fault monitor: executes a declarative `FaultPlan` against the
//! machine — the simulation's stand-in for "a software failure hits the
//! primary process" or a CPU module dying.

use crate::machine::{CpuId, SharedMachine, WatchTarget};
use crate::proc::{CpuDied, ProcessDied};
use simcore::fault::FaultPlan;
use simcore::{Actor, Ctx, Msg, Sim, SimDuration};

/// Scheduled: kill the primary of a named process now.
struct FireKillProcess {
    name: String,
}
/// Scheduled: kill a CPU now.
struct FireKillCpu {
    cpu: u32,
}

pub struct Monitor {
    machine: SharedMachine,
    plan: FaultPlan,
}

impl Monitor {
    /// Spawn the monitor and arm the plan: network-level faults are handed
    /// to the fabric, timed kills are scheduled.
    pub fn install(sim: &mut Sim, machine: &SharedMachine, plan: FaultPlan) {
        {
            let m = machine.lock();
            m.net.lock().fault_plan = plan.clone();
        }
        let id = sim.spawn(Monitor {
            machine: machine.clone(),
            plan: plan.clone(),
        });
        for (name, at) in plan.process_kills() {
            sim.post(
                id,
                SimDuration::from_nanos(at.as_nanos()),
                FireKillProcess { name },
            );
        }
        for (cpu, at) in plan.cpu_kills() {
            sim.post(
                id,
                SimDuration::from_nanos(at.as_nanos()),
                FireKillCpu { cpu },
            );
        }
    }

    fn notify_process_death(
        &self,
        ctx: &mut Ctx<'_>,
        name: &str,
        was_primary: bool,
        detection_ns: u64,
    ) {
        let watchers = self
            .machine
            .lock()
            .watchers_of(&WatchTarget::Process(name.to_string()));
        for w in watchers {
            ctx.send(
                w,
                SimDuration::from_nanos(detection_ns),
                ProcessDied {
                    name: name.to_string(),
                    was_primary,
                },
            );
        }
    }
}

impl Actor for Monitor {
    fn name(&self) -> &str {
        "fault-monitor"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            return;
        }
        let detection_ns = self.machine.lock().cfg.detection_delay_ns;

        let msg = match msg.take::<FireKillProcess>() {
            Ok((_, f)) => {
                let side = self.machine.lock().resolve(&f.name);
                if let Some(side) = side {
                    ctx.kill(side.actor);
                    self.machine.lock().mark_process_dead(&f.name, side.actor);
                    self.notify_process_death(ctx, &f.name, true, detection_ns);
                }
                return;
            }
            Err(m) => m,
        };

        if let Ok((_, f)) = msg.take::<FireKillCpu>() {
            let cpu = CpuId(f.cpu);
            let victims = {
                let mut m = self.machine.lock();
                m.mark_cpu_dead(cpu);
                m.procs_on_cpu(cpu)
            };
            for (name, side, was_primary) in &victims {
                ctx.kill(side.actor);
                self.machine.lock().mark_process_dead(name, side.actor);
                self.notify_process_death(ctx, name, *was_primary, detection_ns);
            }
            let watchers = self.machine.lock().watchers_of(&WatchTarget::Cpu(f.cpu));
            for w in watchers {
                ctx.send(
                    w,
                    SimDuration::from_nanos(detection_ns),
                    CpuDied { cpu: f.cpu },
                );
            }
            let _ = self.plan; // plan retained for future periodic faults
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{install_primary, Machine, MachineConfig};
    use simcore::actor::Start;
    use simcore::fault::Fault;
    use simcore::time::SECS;
    use simcore::{Shared, SimTime};
    use simnet::{FabricConfig, Network};

    struct Victim;
    impl Actor for Victim {
        fn handle(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
    }

    struct Watcher {
        machine: SharedMachine,
        watch: Vec<WatchTarget>,
        seen: Shared<Vec<(u64, String)>>,
    }
    impl Actor for Watcher {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                let me = ctx.self_id();
                let mut m = self.machine.lock();
                for t in self.watch.drain(..) {
                    m.watch(t, me);
                }
                return;
            }
            let msg = match msg.take::<ProcessDied>() {
                Ok((_, d)) => {
                    self.seen
                        .lock()
                        .push((ctx.now().as_nanos(), format!("proc:{}", d.name)));
                    return;
                }
                Err(m) => m,
            };
            if let Ok((_, d)) = msg.take::<CpuDied>() {
                self.seen
                    .lock()
                    .push((ctx.now().as_nanos(), format!("cpu:{}", d.cpu)));
            }
        }
    }

    #[test]
    fn process_kill_notifies_watcher_after_detection_delay() {
        let net = Network::new(FabricConfig::default());
        let machine = Machine::new(MachineConfig::default(), net);
        let mut sim = Sim::with_seed(1);
        let (victim, _) =
            install_primary(&mut sim, &machine, "$adp", CpuId(0), |_| Box::new(Victim));
        let seen = Shared::new(Vec::new());
        sim.spawn(Watcher {
            machine: machine.clone(),
            watch: vec![WatchTarget::Process("$adp".into())],
            seen: seen.clone(),
        });
        let kill_at = SimTime(2 * SECS);
        Monitor::install(
            &mut sim,
            &machine,
            FaultPlan::none().with(Fault::KillProcess {
                name: "$adp".into(),
                at: kill_at,
            }),
        );
        sim.run_until_idle();
        assert!(!sim.is_alive(victim));
        let seen = seen.lock();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].1, "proc:$adp");
        let expected = kill_at.as_nanos() + MachineConfig::default().detection_delay_ns;
        assert_eq!(seen[0].0, expected);
        // Registry no longer resolves the dead primary's endpoint.
        let m = machine.lock();
        let side = m.resolve("$adp").unwrap();
        assert_eq!(m.net.lock().actor_of(side.ep), None);
    }

    #[test]
    fn cpu_kill_takes_out_all_processes_on_it() {
        let net = Network::new(FabricConfig::default());
        let machine = Machine::new(MachineConfig::default(), net);
        let mut sim = Sim::with_seed(1);
        let (v1, _) = install_primary(&mut sim, &machine, "$a", CpuId(2), |_| Box::new(Victim));
        let (v2, _) = install_primary(&mut sim, &machine, "$b", CpuId(2), |_| Box::new(Victim));
        let (v3, _) = install_primary(&mut sim, &machine, "$c", CpuId(1), |_| Box::new(Victim));
        let seen = Shared::new(Vec::new());
        sim.spawn(Watcher {
            machine: machine.clone(),
            watch: vec![
                WatchTarget::Cpu(2),
                WatchTarget::Process("$a".into()),
                WatchTarget::Process("$b".into()),
            ],
            seen: seen.clone(),
        });
        Monitor::install(
            &mut sim,
            &machine,
            FaultPlan::none().with(Fault::KillCpu {
                cpu: 2,
                at: SimTime(SECS),
            }),
        );
        sim.run_until_idle();
        assert!(!sim.is_alive(v1));
        assert!(!sim.is_alive(v2));
        assert!(sim.is_alive(v3));
        assert!(!machine.lock().cpu_alive(CpuId(2)));
        let kinds: Vec<String> = seen.lock().iter().map(|(_, s)| s.clone()).collect();
        assert!(kinds.contains(&"proc:$a".to_string()));
        assert!(kinds.contains(&"proc:$b".to_string()));
        assert!(kinds.contains(&"cpu:2".to_string()));
    }
}
