//! The process-pair protocol, written once.
//!
//! A NonStop service is a primary/backup pair: the primary checkpoints a
//! state change to its backup *before externalizing* it and goes on once
//! the backup acknowledges; the backup watches the pair's name and takes
//! over when the primary dies. Every server in this workspace — DP2, the
//! TMF, the ADP and the PMM — is such a pair. What differs between them is
//! what a checkpoint *says*, what a promotion does and what a released
//! waiter means; the protocol itself is here:
//!
//! * [`PairCore`] is the protocol as a pure state machine, shaped like
//!   `pmm::bulk::BulkRun`: no clock, no network. It holds the role, the
//!   checkpoint sequence numbers and the waiters parked on an ack; a
//!   waiter leaves by its ack or, when the backup dies, with every other
//!   one at once — never both.
//! * [`Pair`] is the thin shell that puts it on the wire. It watches the
//!   pair's own name, promotes in the registry, sends a checkpoint to the
//!   backup the registry names *now* and acknowledges the ones it gets.
//!
//! Whether there is a backup is a registry read at checkpoint time, not a
//! bit kept here. The monitor clears a dead backup's entry at the kill, a
//! detection delay before [`ProcessDied`] arrives; a pair that kept its
//! own bit would meanwhile send checkpoints into the void and park each
//! one's waiter until detection.

use crate::machine::{CpuId, SharedMachine, WatchTarget};
use crate::proc::{send_to, Checkpoint, CheckpointAck, ProcessDied};
use simcore::{Ctx, Msg};
use simnet::{EndpointId, SharedNetwork, TrafficClass};
use std::any::Any;

/// Which half of the pair a process is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    Primary,
    Backup,
}

/// What a half does about a death in its own pair.
#[derive(Debug)]
pub enum Died<W> {
    /// The primary died and this was its backup: it is the primary now.
    Promote,
    /// The backup died: no checkpoint in flight will be acknowledged.
    /// Every waiter parked on one, in the order their checkpoints left.
    BackupLost(Vec<W>),
    /// Nothing for this half to do.
    Ignore,
}

/// The protocol's state: role, sequence numbers and parked waiters.
pub struct PairCore<W> {
    role: Role,
    next_seq: u64,
    /// Waiters by the seq of the checkpoint they wait on. Seqs are issued
    /// increasing and acks may cross, so this stays sorted by pushing and
    /// gives up from anywhere.
    parked: Vec<(u64, W)>,
}

impl<W> PairCore<W> {
    pub fn new(role: Role) -> Self {
        PairCore {
            role,
            next_seq: 0,
            parked: Vec::new(),
        }
    }

    pub fn role(&self) -> Role {
        self.role
    }

    /// Number a checkpoint nobody waits on (fire-and-forget).
    pub fn seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Number a checkpoint and park `w` on its ack.
    pub fn park(&mut self, w: W) -> u64 {
        let seq = self.seq();
        self.parked.push((seq, w));
        seq
    }

    /// The backup acknowledged `seq`: the waiter parked on it, if any (a
    /// fire-and-forget checkpoint's ack, a duplicate or one that arrives
    /// after the backup was given up releases nothing).
    pub fn acked(&mut self, seq: u64) -> Option<W> {
        let at = self.parked.binary_search_by_key(&seq, |(s, _)| *s).ok()?;
        Some(self.parked.remove(at).1)
    }

    /// A half of this pair died: the primary (`was_primary`) or the backup.
    pub fn died(&mut self, was_primary: bool) -> Died<W> {
        match (self.role, was_primary) {
            (Role::Backup, true) => {
                self.role = Role::Primary;
                Died::Promote
            }
            (Role::Primary, false) => Died::BackupLost(
                std::mem::take(&mut self.parked)
                    .into_iter()
                    .map(|(_, w)| w)
                    .collect(),
            ),
            _ => Died::Ignore,
        }
    }
}

/// Process-pair traffic, unwrapped by [`Pair::recv`].
pub enum Inbound<W> {
    /// A checkpoint from the primary, already acknowledged: apply it.
    Checkpoint(Box<dyn Any>),
    /// The backup acknowledged the checkpoint this waiter was parked on.
    Released(W),
    /// An acknowledgement that releases nothing.
    Acked,
    /// Not process-pair traffic: the server's own.
    Other(Box<dyn Any>),
}

/// One half of a process pair: who it is, where it runs, and the protocol
/// on the wire. `W` is what the server parks on a checkpoint's ack.
pub struct Pair<W> {
    pub name: String,
    pub machine: SharedMachine,
    pub net: SharedNetwork,
    pub ep: EndpointId,
    pub cpu: CpuId,
    core: PairCore<W>,
}

impl<W> Pair<W> {
    pub fn new(
        role: Role,
        name: &str,
        machine: &SharedMachine,
        ep: EndpointId,
        cpu: CpuId,
    ) -> Self {
        Pair {
            name: name.to_string(),
            machine: machine.clone(),
            net: machine.lock().net.clone(),
            ep,
            cpu,
            core: PairCore::new(role),
        }
    }

    pub fn is_primary(&self) -> bool {
        self.core.role() == Role::Primary
    }

    /// At start both halves watch the pair: the backup to take over, the
    /// primary to stop waiting on a backup that is gone.
    pub fn watch(&self, ctx: &mut Ctx<'_>) {
        let me = ctx.self_id();
        self.machine
            .lock()
            .watch(WatchTarget::Process(self.name.clone()), me);
    }

    /// The registry names a live backup right now. A primary checkpoints
    /// only then; without one it externalizes straight away.
    pub fn has_backup(&self) -> bool {
        self.machine.lock().resolve_backup(&self.name).is_some()
    }

    /// Checkpoint `payload` (`wire` bytes on the fabric) to the backup,
    /// with `waiter` parked on its ack (`None`: nobody waits).
    pub fn send_checkpoint<P: Any>(
        &mut self,
        ctx: &mut Ctx<'_>,
        waiter: Option<W>,
        wire: u32,
        payload: P,
    ) {
        let seq = match waiter {
            Some(w) => self.core.park(w),
            None => self.core.seq(),
        };
        let backup = self.machine.lock().resolve_backup(&self.name);
        if let Some(backup) = backup {
            let ck = Checkpoint {
                seq,
                payload: Box::new(payload),
            };
            send_to(
                ctx,
                &self.machine,
                self.ep,
                self.cpu,
                backup,
                wire,
                TrafficClass::Commit,
                ck,
            );
        }
    }

    /// Take a [`ProcessDied`] for this pair; any other message comes back.
    /// A promotion is already entered in the registry when it returns.
    #[inline] // every message a server takes passes here
    pub fn take_died(&mut self, msg: Msg) -> Result<Died<W>, Msg> {
        let (_, d) = msg.take::<ProcessDied>()?;
        if d.name != self.name {
            return Ok(Died::Ignore);
        }
        let died = self.core.died(d.was_primary);
        if matches!(died, Died::Promote) {
            self.machine.lock().promote_backup(&self.name);
        }
        Ok(died)
    }

    /// Unwrap a network payload: a checkpoint is acknowledged (16 bytes)
    /// and handed over, an ack releases its waiter, anything else is the
    /// server's.
    #[inline] // every network payload a server takes passes here
    pub fn recv(
        &mut self,
        ctx: &mut Ctx<'_>,
        from_ep: EndpointId,
        payload: Box<dyn Any>,
    ) -> Inbound<W> {
        let payload = match payload.downcast::<Checkpoint>() {
            Ok(ck) => {
                let Checkpoint { seq, payload } = *ck;
                simnet::send_net_msg(ctx, &self.net, self.ep, from_ep, 16, CheckpointAck { seq });
                return Inbound::Checkpoint(payload);
            }
            Err(p) => p,
        };
        match payload.downcast::<CheckpointAck>() {
            Ok(ack) => match self.core.acked(ack.seq) {
                Some(w) => Inbound::Released(w),
                None => Inbound::Acked,
            },
            Err(p) => Inbound::Other(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{install_backup, install_primary, Machine, MachineConfig};
    use crate::monitor::Monitor;
    use simcore::actor::Start;
    use simcore::fault::{Fault, FaultPlan};
    use simcore::{Actor, ActorId, Shared, Sim, SimDuration, SimTime};
    use simnet::{FabricConfig, NetDelivery, Network};

    /// One half of a pair that, as primary, checkpoints once at 1 ms with
    /// waiter 7, and logs everything the protocol hands it.
    struct Half {
        pair: Pair<u32>,
        log: Shared<Vec<String>>,
    }

    struct Go;

    impl Half {
        fn note(&self, what: String) {
            let role = if self.pair.is_primary() { "P" } else { "B" };
            self.log.lock().push(format!("{role} {what}"));
        }
    }

    impl Actor for Half {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                self.pair.watch(ctx);
                if self.pair.is_primary() {
                    ctx.send_self(SimDuration::from_millis(1), Go);
                }
                return;
            }
            if msg.is::<Go>() {
                self.note(format!("has_backup {}", self.pair.has_backup()));
                self.pair
                    .send_checkpoint(ctx, Some(7), 64, "ck7".to_string());
                return;
            }
            let msg = match self.pair.take_died(msg) {
                Ok(Died::Promote) => return self.note("promoted".into()),
                Ok(Died::BackupLost(ws)) => return self.note(format!("lost {ws:?}")),
                Ok(Died::Ignore) => return,
                Err(m) => m,
            };
            if let Ok((_, d)) = msg.take::<NetDelivery>() {
                let what = match self.pair.recv(ctx, d.from_ep, d.payload) {
                    Inbound::Checkpoint(p) => {
                        format!("applied {:?}", p.downcast_ref::<String>())
                    }
                    Inbound::Released(w) => format!("released {w}"),
                    Inbound::Acked => "acked".into(),
                    Inbound::Other(_) => "other".into(),
                };
                self.note(what);
            }
        }
    }

    /// A pair `$pair` (primary on CPU 0, backup on CPU 1) under `fault`:
    /// the protocol's log, the backup's actor and the machine after 1 s.
    fn run(fault: Option<Fault>) -> (Vec<String>, ActorId, SharedMachine) {
        let machine = Machine::new(
            MachineConfig::default(),
            Network::new(FabricConfig::default()),
        );
        let mut sim = Sim::with_seed(5);
        let log = Shared::new(Vec::new());
        let plan = fault.map_or(FaultPlan::none(), |f| FaultPlan::none().with(f));
        Monitor::install(&mut sim, &machine, plan);
        let half = |role, cpu| {
            let (machine, log) = (machine.clone(), log.clone());
            move |ep| -> Box<dyn Actor> {
                Box::new(Half {
                    pair: Pair::new(role, "$pair", &machine, ep, CpuId(cpu)),
                    log,
                })
            }
        };
        install_primary(
            &mut sim,
            &machine,
            "$pair",
            CpuId(0),
            half(Role::Primary, 0),
        );
        let (backup, _) =
            install_backup(&mut sim, &machine, "$pair", CpuId(1), half(Role::Backup, 1));
        sim.run_until(SimTime(simcore::time::SECS));
        let log = std::mem::take(&mut *log.lock());
        (log, backup, machine)
    }

    #[test]
    fn a_checkpoint_reaches_the_backup_and_its_ack_releases_the_waiter() {
        let (log, _, _) = run(None);
        assert_eq!(
            log,
            [
                "P has_backup true",
                "B applied Some(\"ck7\")",
                "P released 7"
            ]
        );
    }

    #[test]
    fn a_dead_backup_releases_what_waited_on_its_ack() {
        // The backup's CPU dies with the checkpoint on its way there.
        let at = SimTime(simcore::time::MILLIS + 1);
        let (log, _, machine) = run(Some(Fault::KillCpu { cpu: 1, at }));
        assert_eq!(log, ["P has_backup true", "P lost [7]"]);
        assert!(machine.lock().resolve_backup("$pair").is_none());
    }

    #[test]
    fn the_backup_takes_over_when_its_primary_dies() {
        let at = SimTime(simcore::time::MILLIS / 2);
        let (log, backup, machine) = run(Some(Fault::KillProcess {
            name: "$pair".into(),
            at,
        }));
        assert_eq!(log, ["P promoted"]);
        let now = machine.lock().resolve("$pair").map(|side| side.actor);
        assert_eq!(now, Some(backup));
    }
}
