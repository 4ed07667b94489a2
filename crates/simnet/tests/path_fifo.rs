//! Property test: per-`(initiator, target)` FIFO.
//!
//! Routing depends on the target and on fabric health only, so everything
//! one initiator sends one target leaves one transmit port in issue order,
//! and a health edge that moves the path to the other port cannot let a
//! later leg overtake an earlier one. `FlushOnRead`'s read-after-write and
//! the PMM's copy→verify sequencing rest on exactly this: whatever the
//! mix of writes, reads and messages, their sizes and their spacing, on
//! either transport and across an outage of either fabric, the target sees
//! them in the order they were issued — a read never passes an earlier
//! write.
//!
//! Jitter is off: it is per-op noise of a few percent that the ordering
//! argument is not about (two tiny ops posted back to back can swap under
//! it on any port layout). One traffic class: under QoS, classes are
//! *meant* to overtake each other.

use bytes::Bytes;
use proptest::prelude::*;
use simcore::actor::Start;
use simcore::fault::{Fault, FaultPlan};
use simcore::{Actor, ActorId, Ctx, Msg, Shared, Sim, SimDuration, SimTime};
use simnet::{
    rdma_read, rdma_write_sized, reply_rdma_read, reply_rdma_write, send_net_msg, EndpointId,
    FabricConfig, InboundRdmaRead, InboundRdmaWrite, NetDelivery, Network, QosConfig, RdmaStatus,
    SharedNetwork, TrafficClass,
};

#[derive(Clone, Copy, Debug)]
enum Verb {
    Write,
    Read,
    Message,
}

/// One scripted op: issued `gap_ns` after the previous one.
#[derive(Clone, Copy, Debug)]
struct Op {
    gap_ns: u64,
    verb: Verb,
    len: u32,
}

type Seen = Shared<Vec<u64>>;

/// Records the id of everything delivered to it, in delivery order.
struct Target {
    net: SharedNetwork,
    ep: EndpointId,
    delivered: Seen,
}

impl Actor for Target {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.take::<InboundRdmaWrite>() {
            Ok((_, w)) => {
                self.delivered.lock().push(w.op_id);
                reply_rdma_write(ctx, &self.net, &w, RdmaStatus::Ok, 0);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<InboundRdmaRead>() {
            Ok((_, r)) => {
                self.delivered.lock().push(r.op_id);
                let data = Bytes::from(vec![0u8; r.len as usize]);
                reply_rdma_read(ctx, &self.net, self.ep, &r, RdmaStatus::Ok, data);
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, d)) = msg.take::<NetDelivery>() {
            self.delivered
                .lock()
                .push(*d.payload.downcast::<u64>().unwrap());
        }
    }
}

struct Fire(usize);

/// Issues the script, one self-timer per op; completions are ignored.
struct Initiator {
    net: SharedNetwork,
    ep: EndpointId,
    to: EndpointId,
    script: Vec<Op>,
    issued: Seen,
}

impl Actor for Initiator {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            let mut at = 0;
            for (i, op) in self.script.iter().enumerate() {
                at += op.gap_ns;
                ctx.send_self(SimDuration::from_nanos(at), Fire(i));
            }
            return;
        }
        let Ok((_, Fire(i))) = msg.take::<Fire>() else {
            return;
        };
        let (net, id, class) = (self.net.clone(), i as u64, TrafficClass::Commit);
        let Op { verb, len, .. } = self.script[i];
        // With both fabrics never down at once every op is carried.
        self.issued.lock().push(id);
        match verb {
            Verb::Write => {
                let data = Bytes::from_static(&[0xAB; 8]);
                rdma_write_sized(ctx, &net, self.ep, self.to, 0, data, len.max(8), id, class)
            }
            Verb::Read => rdma_read(ctx, &net, self.ep, self.to, 0, len, id, class),
            Verb::Message => assert!(send_net_msg(ctx, &net, self.ep, self.to, len, id)),
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let verb = prop_oneof![Just(Verb::Write), Just(Verb::Read), Just(Verb::Message)];
    let len = prop_oneof![
        Just(0u32),
        Just(64u32),
        1u32..600,
        Just(4096u32),
        4096u32..70_000
    ];
    // Half the ops are posted in the same instant as the one before.
    let gap_ns = prop_oneof![Just(0u64), 0u64..80_000];
    (gap_ns, verb, len).prop_map(|(gap_ns, verb, len)| Op { gap_ns, verb, len })
}

proptest! {
    #[test]
    fn one_initiators_ops_reach_one_target_in_issue_order(
        script in proptest::collection::vec(op_strategy(), 1..40),
        scheduled in any::<bool>(),
        target_home in 0u8..2,
        down_fabric in 0u8..2,
        down_from_ns in 0u64..1_500_000,
        down_for_ns in 0u64..1_500_000,
    ) {
        let cfg = FabricConfig { jitter_frac: 0.0, ..FabricConfig::default() };
        let qos = if scheduled { QosConfig::drr(0.9) } else { QosConfig::disabled() };
        let net = Network::with_qos(cfg, qos);
        net.lock().fault_plan = FaultPlan::none().with(Fault::FabricDown {
            fabric: down_fabric,
            from: SimTime(down_from_ns),
            to: SimTime(down_from_ns + down_for_ns),
        });
        let mut sim = Sim::with_seed(1);
        let (delivered, issued) = (Seen::default(), Seen::default());
        let (to, ep) = {
            let mut n = net.lock();
            let to = n.attach(ActorId(u32::MAX));
            n.set_home_fabric(to, target_home);
            (to, n.attach(ActorId(u32::MAX)))
        };
        let target = sim.spawn(Target { net: net.clone(), ep: to, delivered: delivered.clone() });
        let initiator = sim.spawn(Initiator {
            net: net.clone(),
            ep,
            to,
            script: script.clone(),
            issued: issued.clone(),
        });
        net.lock().rebind(to, target);
        net.lock().rebind(ep, initiator);
        sim.run_until_idle();

        prop_assert_eq!(issued.lock().len(), script.len());
        prop_assert_eq!(&*delivered.lock(), &*issued.lock());
        // One switch per health edge that found the path in use, at most.
        prop_assert!(net.lock().stats.failovers <= 2);
    }
}
