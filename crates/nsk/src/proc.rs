//! Process-level IPC helpers and process-pair message types.

use crate::machine::{CpuId, ProcSide, SharedMachine};
use simcore::{Ctx, SimDuration};
use simnet::{send_net_msg_class, EndpointId, NetDelivery, TrafficClass};
use std::any::Any;

/// Notification delivered to watchers when a watched process dies
/// (after the machine's detection delay).
#[derive(Clone, Debug)]
pub struct ProcessDied {
    pub name: String,
    pub was_primary: bool,
}

/// Notification delivered to watchers when a watched CPU dies.
#[derive(Clone, Copy, Debug)]
pub struct CpuDied {
    pub cpu: u32,
}

/// A checkpoint from a primary to its backup. NonStop semantics: the
/// primary sends this *before externalizing* the state change it protects,
/// and proceeds only once [`CheckpointAck`] returns.
pub struct Checkpoint {
    pub seq: u64,
    pub payload: Box<dyn Any>,
}

/// Backup's acknowledgement of a checkpoint.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointAck {
    pub seq: u64,
}

/// Send `payload` from the process owning `from_ep` (on `from_cpu`) to the
/// current primary of process `name`.
///
/// Same-CPU messages cost the machine's local IPC latency; cross-CPU
/// messages ride the ServerNet fabric. Either way the target receives a
/// [`NetDelivery`]. Returns `false` if the name does not resolve or the
/// fabric cannot carry the message (callers treat that as a lost message,
/// exactly like NSK's message system during a takeover window).
pub fn send_to_process<T: Any>(
    ctx: &mut Ctx<'_>,
    machine: &SharedMachine,
    from_ep: EndpointId,
    from_cpu: CpuId,
    name: &str,
    wire_len: u32,
    payload: T,
) -> bool {
    send_to_process_class(
        ctx,
        machine,
        from_ep,
        from_cpu,
        name,
        wire_len,
        TrafficClass::Commit,
        payload,
    )
}

/// As [`send_to_process`], riding an explicit fabric [`TrafficClass`]
/// when the message leaves the CPU (same-CPU IPC has no fabric leg):
/// bandwidth-bearing senders such as DP2 audit-delta appends tag
/// themselves so the fabric's per-class schedulers can arbitrate them
/// against commit-critical control traffic.
#[allow(clippy::too_many_arguments)]
pub fn send_to_process_class<T: Any>(
    ctx: &mut Ctx<'_>,
    machine: &SharedMachine,
    from_ep: EndpointId,
    from_cpu: CpuId,
    name: &str,
    wire_len: u32,
    class: TrafficClass,
    payload: T,
) -> bool {
    let target = machine.lock().resolve(name);
    target.is_some_and(|t| send_to(ctx, machine, from_ep, from_cpu, t, wire_len, class, payload))
}

/// The one send to a resolved process side, primary or backup: local IPC
/// on the same CPU, the fabric otherwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn send_to<T: Any>(
    ctx: &mut Ctx<'_>,
    machine: &SharedMachine,
    from_ep: EndpointId,
    from_cpu: CpuId,
    target: ProcSide,
    wire_len: u32,
    class: TrafficClass,
    payload: T,
) -> bool {
    if target.cpu == from_cpu {
        let delay = machine.lock().cfg.local_ipc_ns;
        ctx.send(
            target.actor,
            SimDuration::from_nanos(delay),
            NetDelivery {
                from_ep,
                payload: Box::new(payload),
            },
        );
        true
    } else {
        let net = machine.lock().net.clone();
        send_net_msg_class(ctx, &net, from_ep, target.ep, wire_len, class, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{install_primary, Machine, MachineConfig};
    use simcore::actor::Start;
    use simcore::{Actor, Msg, Shared, Sim};
    use simnet::{FabricConfig, Network};

    struct Echo {
        log: Shared<Vec<(u64, String)>>,
        tagname: &'static str,
    }
    impl Actor for Echo {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                return;
            }
            if let Ok((_, d)) = msg.take::<NetDelivery>() {
                if let Ok(s) = d.payload.downcast::<String>() {
                    self.log
                        .lock()
                        .push((ctx.now().as_nanos(), format!("{}:{}", self.tagname, s)));
                }
            }
        }
    }

    struct Sender {
        machine: SharedMachine,
        ep: EndpointId,
        cpu: CpuId,
        dests: Vec<&'static str>,
    }
    impl Actor for Sender {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                for name in self.dests.clone() {
                    let machine = self.machine.clone();
                    let ok = send_to_process(
                        ctx,
                        &machine,
                        self.ep,
                        self.cpu,
                        name,
                        64,
                        "hi".to_string(),
                    );
                    assert_eq!(ok, name != "$missing", "{name}");
                }
            }
        }
    }

    #[test]
    fn local_delivery_faster_than_remote() {
        let net = Network::new(FabricConfig::default());
        let machine = Machine::new(MachineConfig::default(), net);
        let mut sim = Sim::with_seed(3);
        let log = Shared::new(Vec::new());

        let l1 = log.clone();
        install_primary(&mut sim, &machine, "$local", CpuId(0), move |_| {
            Box::new(Echo {
                log: l1,
                tagname: "local",
            })
        });
        let l2 = log.clone();
        install_primary(&mut sim, &machine, "$remote", CpuId(1), move |_| {
            Box::new(Echo {
                log: l2,
                tagname: "remote",
            })
        });
        let m2 = machine.clone();
        install_primary(&mut sim, &machine, "$sender", CpuId(0), move |ep| {
            Box::new(Sender {
                machine: m2,
                ep,
                cpu: CpuId(0),
                dests: vec!["$local", "$remote", "$missing"],
            })
        });
        sim.run_until_idle();
        let log = log.lock();
        assert_eq!(log.len(), 2);
        let t_local = log.iter().find(|(_, s)| s.starts_with("local")).unwrap().0;
        let t_remote = log.iter().find(|(_, s)| s.starts_with("remote")).unwrap().0;
        assert!(t_local < t_remote, "local {t_local} !< remote {t_remote}");
        assert_eq!(t_local, MachineConfig::default().local_ipc_ns);
    }
}
