//! The event queue: a binary heap ordered by `(time, seq)`, and beside it
//! an ordered set of *timers* — events their owner may take back.
//!
//! The sequence number breaks ties between events scheduled for the same
//! instant in scheduling order, which is what makes the engine
//! deterministic: `BinaryHeap` alone gives no stable order for equal keys.
//!
//! A per-operation watchdog is armed when the operation starts and is
//! dead the moment it completes — long before it is due. Left on the heap
//! it is sifted past, popped and dispatched to a handler that looks the
//! operation up and finds nothing. A timer's key is its handle
//! ([`TimerId`]), so disarming *removes* it: nothing dead stands in the
//! queue and nothing dead is dispatched. Timers draw `seq` from the
//! heap's counter and [`EventQueue::pop`] takes whichever head has the
//! smaller `(time, seq)`, so the events that survive leave in exactly the
//! order one heap would have given them.
//!
//! An event that is usually dead *before* it is scheduled — a completion
//! that only matters if something else arrives first — need not be pushed
//! at all: [`EventQueue::reserve`] draws its `seq` now and
//! [`EventQueue::push_reserved`] pushes it into that `(time, seq)` later,
//! if it turns out to be needed. Draws are what fix the order, so every
//! other event keeps its key whether or not the slot is ever filled.

use crate::actor::{ActorId, Msg};
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

/// A scheduled delivery of a message to an actor.
pub struct Event {
    pub time: SimTime,
    pub seq: u64,
    pub target: ActorId,
    pub msg: Msg,
}

// Every push and pop moves events through the heap by value: a field added
// to `Event` or `Msg` makes each sift step move more bytes (a cached
// payload type id there measured 64 B and a slower simulator), so growing
// it has to be a decision, not an accident.
const _: () = assert!(std::mem::size_of::<Event>() <= 48);

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Handle to an armed timer: its queue key `(due time, schedule seq)`.
/// Stays valid — and harmless — after the timer fired or was disarmed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimerId {
    due: SimTime,
    seq: u64,
}

/// A `(time, seq)` drawn by [`EventQueue::reserve`] for an event that
/// may be pushed later. Dropping it unfilled pushes nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventSlot {
    time: SimTime,
    seq: u64,
}

impl EventSlot {
    pub(crate) fn time(&self) -> SimTime {
        self.time
    }
}

/// Priority queue of pending events.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    /// Armed timers by `(due, seq)`. Ordered, so a disarm is a removal
    /// rather than a tombstone the dispatch loop would still have to pop.
    timers: BTreeMap<(SimTime, u64), (ActorId, Msg)>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule delivery of `msg` to `target` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, target: ActorId, msg: Msg) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event {
            time,
            seq,
            target,
            msg,
        });
    }

    /// Draw the next `seq` for an event due at `time` without pushing it:
    /// the slot sits in the schedule exactly where a [`Self::push`] made
    /// now would have.
    pub fn reserve(&mut self, time: SimTime) -> EventSlot {
        let seq = self.next_seq;
        self.next_seq += 1;
        EventSlot { time, seq }
    }

    /// Push `msg` to `target` into a reserved slot. It pops exactly where
    /// a push at reservation time would have, behind everything drawn
    /// before the slot and ahead of everything drawn after it — so the
    /// slot must be filled before the queue has popped past it.
    pub fn push_reserved(&mut self, slot: EventSlot, target: ActorId, msg: Msg) {
        self.heap.push(Event {
            time: slot.time,
            seq: slot.seq,
            target,
            msg,
        });
    }

    /// Schedule delivery of `msg` to `target` at `time` as a timer that
    /// [`Self::disarm`] can take back.
    pub fn arm(&mut self, time: SimTime, target: ActorId, msg: Msg) -> TimerId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.timers.insert((time, seq), (target, msg));
        TimerId { due: time, seq }
    }

    /// Remove a timer that has not fired. Returns whether it was still
    /// armed; a fired, disarmed or discarded timer is left alone.
    pub fn disarm(&mut self, id: TimerId) -> bool {
        self.timers.remove(&(id.due, id.seq)).is_some()
    }

    pub fn pop(&mut self) -> Option<Event> {
        let timer_first = match (self.timers.first_key_value(), self.heap.peek()) {
            (Some((&key, _)), Some(e)) => key < (e.time, e.seq),
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !timer_first {
            return self.heap.pop();
        }
        let ((time, seq), (target, msg)) = self.timers.pop_first()?;
        Some(Event {
            time,
            seq,
            target,
            msg,
        })
    }

    pub fn peek_time(&self) -> Option<SimTime> {
        let event = self.heap.peek().map(|e| e.time);
        let timer = self.timers.first_key_value().map(|(&(time, _), _)| time);
        match (event, timer) {
            (Some(e), Some(t)) => Some(e.min(t)),
            (e, t) => e.or(t),
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len() + self.timers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.timers.is_empty()
    }

    /// Drop every pending event and timer addressed to `target`. Used
    /// when an actor is killed by fault injection: a dead CPU receives
    /// nothing. The survivors' heap layout may change, but not the order
    /// they leave in: pop order is by the unique `(time, seq)` key.
    pub fn discard_for(&mut self, target: ActorId) {
        self.heap.retain(|e| e.target != target);
        self.timers.retain(|_, (to, _)| *to != target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::Msg;

    fn msg(tag: u32) -> Msg {
        Msg::new(ActorId(0), tag)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), ActorId(1), msg(3));
        q.push(SimTime(10), ActorId(1), msg(1));
        q.push(SimTime(20), ActorId(1), msg(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..50u32 {
            q.push(SimTime(5), ActorId(i), msg(i));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.target.0).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn discard_for_removes_only_target() {
        let mut q = EventQueue::new();
        q.push(SimTime(1), ActorId(1), msg(0));
        q.push(SimTime(2), ActorId(2), msg(0));
        q.push(SimTime(3), ActorId(1), msg(0));
        q.discard_for(ActorId(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().target, ActorId(2));
    }

    #[test]
    fn discard_preserves_order_of_rest() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), ActorId(2), msg(0));
        q.push(SimTime(5), ActorId(1), msg(0));
        q.push(SimTime(5), ActorId(2), msg(1));
        q.discard_for(ActorId(1));
        let tags: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| *e.msg.payload.downcast_ref::<u32>().unwrap())
            .collect();
        assert_eq!(tags, vec![0, 1]);
    }

    proptest::proptest! {
        /// Discarding one actor's events leaves every other event to
        /// leave exactly when it would have: the pop sequence is the
        /// undisturbed one with that actor's events filtered out.
        #[test]
        fn discard_for_filters_the_pop_sequence(
            before in proptest::collection::vec((0u64..8, 0u32..4, proptest::prelude::any::<bool>()), 0..60),
            popped in 0usize..20,
            victim in 0u32..4,
            after in proptest::collection::vec((0u64..8, 0u32..4, proptest::prelude::any::<bool>()), 0..20),
        ) {
            let (mut kept, mut reference) = (EventQueue::new(), EventQueue::new());
            let schedule = |q: &mut EventQueue, events: &[(u64, u32, bool)], base: u64| {
                for (i, &(t, to, timer)) in events.iter().enumerate() {
                    let (at, tag) = (SimTime(base + t), i as u32);
                    if timer {
                        q.arm(at, ActorId(to), msg(tag));
                    } else {
                        q.push(at, ActorId(to), msg(tag));
                    }
                }
            };
            let key = |e: Event| (e.time, e.seq, e.target);
            schedule(&mut kept, &before, 0);
            schedule(&mut reference, &before, 0);
            for _ in 0..popped {
                proptest::prop_assert_eq!(kept.pop().map(key), reference.pop().map(key));
            }
            kept.discard_for(ActorId(victim));
            schedule(&mut kept, &after, 4);
            schedule(&mut reference, &after, 4);
            // Both queues drew the same seqs; the victim's events scheduled
            // after the discard are delivered like any other.
            let discarded = |&(_, seq, to): &(SimTime, u64, ActorId)| {
                to == ActorId(victim) && seq < before.len() as u64
            };
            let got: Vec<_> = std::iter::from_fn(|| kept.pop()).map(key).collect();
            let want: Vec<_> = std::iter::from_fn(|| reference.pop())
                .map(key)
                .filter(|e| !discarded(e))
                .collect();
            proptest::prop_assert_eq!(got, want);
        }
    }

    proptest::proptest! {
        /// A slot filled at any later point pops exactly where a push at
        /// reservation time would have — same-instant events drawn
        /// between the reservation and the fill included.
        #[test]
        fn a_reserved_slot_pops_where_an_immediate_push_would(
            before in proptest::collection::vec(0u64..4, 0..20),
            due in 0u64..4,
            between in proptest::collection::vec(0u64..4, 0..20),
            fill_after in 0usize..20,
        ) {
            let (mut reserved, mut eager) = (EventQueue::new(), EventQueue::new());
            for (i, &t) in before.iter().enumerate() {
                reserved.push(SimTime(t), ActorId(1), msg(i as u32));
                eager.push(SimTime(t), ActorId(1), msg(i as u32));
            }
            let slot = reserved.reserve(SimTime(due));
            eager.push(SimTime(due), ActorId(9), msg(u32::MAX));
            for (i, &t) in between.iter().enumerate() {
                if i == fill_after {
                    reserved.push_reserved(slot, ActorId(9), msg(u32::MAX));
                }
                reserved.push(SimTime(t), ActorId(2), msg(i as u32));
                eager.push(SimTime(t), ActorId(2), msg(i as u32));
            }
            if fill_after >= between.len() {
                reserved.push_reserved(slot, ActorId(9), msg(u32::MAX));
            }
            let key = |e: Event| (e.time, e.seq, e.target);
            let got: Vec<_> = std::iter::from_fn(|| reserved.pop()).map(key).collect();
            let want: Vec<_> = std::iter::from_fn(|| eager.pop()).map(key).collect();
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn an_unfilled_slot_leaves_no_event_and_no_gap_in_the_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(5), ActorId(1), msg(0));
        let _dropped = q.reserve(SimTime(5));
        q.push(SimTime(5), ActorId(2), msg(0));
        assert_eq!(q.len(), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.target.0).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(9), ActorId(0), msg(0));
        q.push(SimTime(4), ActorId(0), msg(0));
        assert_eq!(q.peek_time(), Some(SimTime(4)));
    }
}
