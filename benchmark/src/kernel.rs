//! The simulation kernel alone: two benchmark-owned actors ping-pong over a
//! standing queue of 10,000 events on a bare `Sim`, so a dispatch costs the
//! queue, the `Box<dyn Any>` message and the downcast with no model code.
//! `kernel_ns_per_event / host_ns_per_event` bounds what a kernel-only
//! change can save on a workload.

use simcore::actor::Start;
use simcore::{Actor, ActorId, Ctx, Msg, Sim, SimDuration};
use std::time::Instant;

const STANDING: u64 = 10_000;
const EVENTS: u64 = 1_500_000;

struct Ball(u64);

struct Paddle {
    peer: Option<ActorId>,
}

impl Actor for Paddle {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            // The serving side puts every ball in play, spread over time so
            // the queue holds them all at once.
            if let Some(peer) = self.peer {
                for i in 0..STANDING {
                    ctx.send(peer, SimDuration::from_nanos(1 + i * 7), Ball(i));
                }
            }
            return;
        }
        if let Ok((from, Ball(i))) = msg.take::<Ball>() {
            let delay = 50_000 + (i * 2_654_435_761) % 20_000;
            ctx.send(from, SimDuration::from_nanos(delay), Ball(i));
        }
    }
}

/// Host ns per dispatched event.
pub fn kernel_ns_per_event() -> f64 {
    let mut sim = Sim::with_seed(1);
    let a = sim.spawn(Paddle { peer: None });
    sim.spawn(Paddle { peer: Some(a) });
    sim.run_until_dispatched(STANDING * 4); // fill and settle the queue
    let (t, d0) = (Instant::now(), sim.dispatched());
    sim.run_until_dispatched(d0 + EVENTS);
    let ns = t.elapsed().as_nanos() as f64;
    ns / (sim.dispatched() - d0) as f64
}
