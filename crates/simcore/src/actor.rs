//! Actors and their execution context.
//!
//! Every timed component of the reproduction — a CPU's message system, a
//! disk volume, an NPMU, a driver process — is an [`Actor`]: a state
//! machine that receives type-erased messages and schedules more. Actors
//! never block; protocols that would block in a real OS (request/reply,
//! checkpoint acknowledgement) are written as explicit states, which is
//! also how the NonStop kernel's own process model behaves at the message
//! layer.

use crate::event::{EventKey, EventSlot, TimerId};
use crate::sim::Sim;
use crate::time::{SimDuration, SimTime};
use crate::DetRng;
use std::any::Any;

/// Identifies an actor within one [`Sim`]. Never reused within a run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u32);

impl std::fmt::Debug for ActorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Delivered to an actor once, at spawn time (zero virtual delay), before
/// any other message. Lets actors kick off timers or initial requests.
pub struct Start;

/// A type-erased message between actors.
pub struct Msg {
    /// The sender. `ActorId(u32::MAX)` marks engine-internal origins.
    pub from: ActorId,
    pub payload: Box<dyn Any>,
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Msg(from={:?})", self.from)
    }
}

/// Sender id used for engine-generated messages ([`Start`], fault events).
pub const ENGINE: ActorId = ActorId(u32::MAX);

impl Msg {
    pub fn new<T: Any>(from: ActorId, payload: T) -> Msg {
        Msg {
            from,
            payload: Box::new(payload),
        }
    }

    /// Is the payload of type `T`?
    pub fn is<T: Any>(&self) -> bool {
        self.payload.is::<T>()
    }

    /// Consume, returning the payload if it is a `T`, or the message back.
    pub fn take<T: Any>(self) -> Result<(ActorId, T), Msg> {
        let Msg { from, payload } = self;
        match payload.downcast::<T>() {
            Ok(b) => Ok((from, *b)),
            Err(payload) => Err(Msg { from, payload }),
        }
    }

    pub fn get<T: Any>(&self) -> Option<&T> {
        self.payload.downcast_ref::<T>()
    }
}

/// A simulated process/device. A simulation runs on one thread, so an
/// actor need not be `Send`; a parallel sweep builds a whole `Sim` on each
/// worker thread instead of moving actors between them.
pub trait Actor {
    /// Handle one message. All side effects go through `ctx`.
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg);

    /// Debug name (used in traces and panics).
    fn name(&self) -> &str {
        "actor"
    }
}

/// The execution context handed to [`Actor::handle`]: the only way an actor
/// can observe time, randomness, or affect the rest of the simulation.
pub struct Ctx<'a> {
    pub(crate) sim: &'a mut Sim,
    pub(crate) self_id: ActorId,
}

impl<'a> Ctx<'a> {
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Schedule `payload` for delivery to `to` after `delay` of virtual
    /// time. Delay zero is legal and delivers after currently queued
    /// same-time events (FIFO among equal times).
    pub fn send<T: Any>(&mut self, to: ActorId, delay: SimDuration, payload: T) {
        let at = self.sim.now() + delay;
        self.sim.queue.push(at, to, Msg::new(self.self_id, payload));
    }

    /// Schedule a message to self — the idiom for what is never taken
    /// back: periodic ticks, CPU-delay continuations, back-off pacing.
    pub fn send_self<T: Any>(&mut self, delay: SimDuration, payload: T) {
        self.send(self.self_id, delay, payload);
    }

    /// Like [`Self::send_self`], but the delivery can be taken back with
    /// [`Self::disarm`] — the idiom for a watchdog over one operation:
    /// arm it with the operation, keep the handle beside the operation's
    /// state, disarm where the operation retires. Ordering against every
    /// other event is exactly `send_self`'s.
    pub fn arm_timer<T: Any>(&mut self, delay: SimDuration, payload: T) -> TimerId {
        let at = self.sim.now() + delay;
        let msg = Msg::new(self.self_id, payload);
        self.sim.queue.arm(at, self.self_id, msg)
    }

    /// Reserve the place in the schedule a `send` due after `delay` would
    /// take now, without sending anything: the idiom for a completion
    /// that is usually a no-op and matters only if something arrives
    /// before it is due. [`Self::send_reserved`] fills it; dropping the
    /// slot sends nothing, and every other event keeps its order either
    /// way.
    pub fn reserve(&mut self, delay: SimDuration) -> EventSlot {
        let at = self.sim.now() + delay;
        self.sim.queue.reserve(at)
    }

    /// Send `payload` to `to` in a reserved slot. It is delivered exactly
    /// as a `send` made at reservation time would have been, so the slot
    /// must be filled strictly before its instant: a handler running at
    /// that instant may already be past it in the schedule.
    pub fn send_reserved<T: Any>(&mut self, slot: EventSlot, to: ActorId, payload: T) {
        debug_assert!(slot.time() > self.now(), "reserved slot already due");
        let msg = Msg::new(self.self_id, payload);
        self.sim.queue.push_reserved(slot, to, msg);
    }

    /// Take an armed timer out of the queue. Returns `false` — and does
    /// nothing — if it already fired or was disarmed; a handler must
    /// still tolerate a timer that fires in the same instant its
    /// operation completes.
    pub fn disarm(&mut self, timer: TimerId) -> bool {
        self.sim.queue.disarm(timer)
    }

    /// Forward an existing message (keeps the original sender).
    pub fn forward(&mut self, to: ActorId, delay: SimDuration, msg: Msg) {
        let at = self.sim.now() + delay;
        self.sim.queue.push(at, to, msg);
    }

    /// [`Self::forward`], returning the key [`Self::recall`] takes the
    /// message back by — the idiom for a delivery sent ahead on a guess
    /// that later news may overturn.
    pub fn forward_keyed(&mut self, to: ActorId, delay: SimDuration, msg: Msg) -> EventKey {
        let at = self.sim.now() + delay;
        self.sim.queue.push_keyed(at, to, msg)
    }

    /// Take back a message sent with [`Self::forward_keyed`]: `None` if it
    /// was already delivered, or discarded with a killed target.
    pub fn recall(&mut self, key: EventKey) -> Option<Msg> {
        self.sim.queue.recall(key)
    }

    /// Up to 1 ns of seeded delay under a perturbation seed
    /// ([`crate::SimConfig::perturb`]); 0 without one. Drawn without
    /// touching [`Self::rng`], so an unperturbed run is unchanged.
    pub fn jitter_ns(&self) -> u64 {
        self.sim.queue.jitter_ns()
    }

    /// Deterministic randomness (one stream per simulation).
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.sim.rng
    }

    /// Spawn a new actor; it receives [`Start`] at the current instant.
    pub fn spawn(&mut self, actor: Box<dyn Actor>) -> ActorId {
        self.sim.spawn_boxed(actor)
    }

    /// Kill an actor: it receives nothing further, pending messages to it
    /// are dropped (a dead CPU's inbound packets go nowhere).
    pub fn kill(&mut self, id: ActorId) {
        self.sim.kill(id);
    }

    /// Is the actor alive (spawned and not killed)?
    pub fn is_alive(&self, id: ActorId) -> bool {
        self.sim.is_alive(id)
    }

    /// Stop the run loop after this dispatch completes.
    pub fn halt(&mut self) {
        self.sim.halted = true;
    }

    /// Record a trace point (no-op unless tracing enabled on the sim).
    pub fn trace(&mut self, detail: &str) {
        let now = self.now();
        let id = self.self_id;
        self.sim.trace.record(now, id, detail);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_take_roundtrip() {
        let m = Msg::new(ActorId(3), 42u32);
        assert!(m.is::<u32>());
        assert!(!m.is::<u64>());
        let (from, v) = m.take::<u32>().unwrap();
        assert_eq!(from, ActorId(3));
        assert_eq!(v, 42);
    }

    #[test]
    fn msg_take_wrong_type_returns_msg() {
        let m = Msg::new(ActorId(1), "hello");
        let m = m.take::<u32>().unwrap_err();
        let (_, s) = m.take::<&str>().unwrap();
        assert_eq!(s, "hello");
    }

    #[test]
    fn msg_get_ref() {
        let m = Msg::new(ActorId(0), 7i64);
        assert_eq!(m.get::<i64>(), Some(&7));
        assert_eq!(m.get::<u8>(), None);
    }
}
