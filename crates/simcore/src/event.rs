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
//!
//! An event that is usually delivered but may have to be taken back —
//! a delivery computed ahead of time, on a guess that later news can
//! overturn — is pushed with [`EventQueue::push_keyed`], which returns
//! its [`EventKey`]; [`EventQueue::recall`] takes it out again and hands
//! its message back. A recall searches the heap, so it suits events that
//! are rarely recalled.
//!
//! A queue built with a perturbation seed ([`EventQueue::perturbed`])
//! keeps time order and each actor's own order but shuffles the rest: an
//! event's key is `(time, rank ‖ seq)`, where the rank — the top 24
//! bits of the 64-bit key — is a seeded hash of its time and target. Events due at one instant for one actor share a rank and leave
//! in schedule order; those for different actors leave in an order the
//! seed picks afresh at every instant. Without a seed every rank is 0 and
//! the key is the schedule order.

use crate::actor::{ActorId, Msg};
use crate::rng::splitmix64;
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

/// The queue key of an event pushed with [`EventQueue::push_keyed`]. Stays
/// valid — and harmless — after the event was delivered, recalled or
/// discarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventKey {
    time: SimTime,
    seq: u64,
}

/// High bits of an event's `seq` a perturbation seed ranks it by; the
/// schedule counter keeps the low `64 - RANK_BITS`.
const RANK_BITS: u32 = 24;

/// Priority queue of pending events.
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    /// Armed timers by `(due, seq)`. Ordered, so a disarm is a removal
    /// rather than a tombstone the dispatch loop would still have to pop.
    timers: BTreeMap<(SimTime, u64), (ActorId, Msg)>,
    next_seq: u64,
    perturb: Option<u64>,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// A queue that orders same-instant events of different actors by a
    /// hash of `seed` (module docs).
    pub fn perturbed(seed: u64) -> Self {
        let perturb = Some(seed);
        EventQueue {
            perturb,
            ..Self::default()
        }
    }

    /// `seq` with the rank of an event due at `time` for `target` in its
    /// high bits.
    fn ranked(&self, time: SimTime, target: ActorId, seq: u64) -> u64 {
        let Some(seed) = self.perturb else {
            return seq;
        };
        assert!(
            seq >> (64 - RANK_BITS) == 0,
            "schedule counter overflows the rank"
        );
        let h = splitmix64(seed ^ splitmix64(time.0 ^ (u64::from(target.0) << 40)));
        (h >> (64 - RANK_BITS) << (64 - RANK_BITS)) | seq
    }

    /// 0 or 1 ns drawn from the perturbation seed and the schedule
    /// counter; always 0 without a seed.
    pub fn jitter_ns(&self) -> u64 {
        self.perturb
            .map_or(0, |seed| splitmix64(seed ^ !self.next_seq) & 1)
    }

    /// Schedule delivery of `msg` to `target` at absolute time `time`.
    pub fn push(&mut self, time: SimTime, target: ActorId, msg: Msg) {
        let seq = self.ranked(time, target, self.next_seq);
        self.next_seq += 1;
        self.heap.push(Event {
            time,
            seq,
            target,
            msg,
        });
    }

    /// [`Self::push`], returning the key [`Self::recall`] takes the event
    /// back by. (`push` does not return it: every event goes through
    /// there, and the unused key measurably slowed it.)
    pub fn push_keyed(&mut self, time: SimTime, target: ActorId, msg: Msg) -> EventKey {
        let seq = self.ranked(time, target, self.next_seq);
        self.push(time, target, msg);
        EventKey { time, seq }
    }

    /// Take a keyed event out of the queue and return its message, or
    /// `None` if it was already popped or discarded. Linear in the queue;
    /// the events left pop in the order they would have.
    pub fn recall(&mut self, key: EventKey) -> Option<Msg> {
        let mut events = std::mem::take(&mut self.heap).into_vec();
        let found = events
            .iter()
            .position(|e| (e.time, e.seq) == (key.time, key.seq))
            .map(|i| events.swap_remove(i).msg);
        self.heap = BinaryHeap::from(events);
        found
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
            seq: self.ranked(slot.time, target, slot.seq),
            target,
            msg,
        });
    }

    /// Schedule delivery of `msg` to `target` at `time` as a timer that
    /// [`Self::disarm`] can take back.
    pub fn arm(&mut self, time: SimTime, target: ActorId, msg: Msg) -> TimerId {
        let seq = self.ranked(time, target, self.next_seq);
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

    #[test]
    fn a_recalled_event_hands_back_its_message_and_the_rest_keep_their_order() {
        for perturb in [None, Some(5)] {
            // `reference` never holds the recalled event: it draws the
            // event's seq and pushes nothing.
            let fill = |keyed: bool| {
                let mut q = perturb.map_or_else(EventQueue::new, EventQueue::perturbed);
                q.push(SimTime(5), ActorId(2), msg(0));
                q.push(SimTime(3), ActorId(1), msg(1));
                let key = if keyed {
                    Some(q.push_keyed(SimTime(5), ActorId(1), msg(2)))
                } else {
                    let _drawn = q.reserve(SimTime(5));
                    None
                };
                q.push(SimTime(5), ActorId(2), msg(3));
                q.push(SimTime(5), ActorId(3), msg(4));
                (q, key)
            };
            let ((mut q, key), (mut reference, _)) = (fill(true), fill(false));
            let recalled = q.recall(key.unwrap()).expect("still queued");
            assert_eq!(*recalled.payload.downcast_ref::<u32>().unwrap(), 2);
            assert_eq!(q.len(), 4);
            let tags = |q: &mut EventQueue| {
                std::iter::from_fn(|| q.pop())
                    .map(|e| *e.msg.payload.downcast_ref::<u32>().unwrap())
                    .collect::<Vec<_>>()
            };
            assert_eq!(tags(&mut q), tags(&mut reference));
        }
    }

    #[test]
    fn recalling_a_popped_event_finds_nothing() {
        let mut q = EventQueue::new();
        let key = q.push_keyed(SimTime(1), ActorId(1), msg(0));
        q.push(SimTime(2), ActorId(1), msg(1));
        assert_eq!(q.pop().unwrap().time, SimTime(1));
        assert!(q.recall(key).is_none());
        assert_eq!(q.len(), 1);
        // Discarded with its target: nothing to recall either.
        let key = q.push_keyed(SimTime(3), ActorId(4), msg(2));
        q.discard_for(ActorId(4));
        assert!(q.recall(key).is_none());
        assert_eq!(q.len(), 1);
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

    proptest::proptest! {
        /// A perturbed queue pops what an unperturbed one pops, in time
        /// order, with each actor's events in schedule order — timers and
        /// reserved slots included.
        #[test]
        fn perturbation_keeps_time_and_per_actor_order(
            seed in proptest::prelude::any::<u64>(),
            events in proptest::collection::vec((0u64..4, 0u32..5, 0u8..3), 0..80),
        ) {
            let (mut plain, mut perturbed) = (EventQueue::new(), EventQueue::perturbed(seed));
            for q in [&mut plain, &mut perturbed] {
                let mut slots = Vec::new();
                for (i, &(t, to, kind)) in events.iter().enumerate() {
                    let (at, to, m) = (SimTime(t), ActorId(to), msg(i as u32));
                    match kind {
                        0 => q.push(at, to, m),
                        1 => drop(q.arm(at, to, m)),
                        _ => slots.push((q.reserve(at), to, m)),
                    }
                }
                for (slot, to, m) in slots {
                    q.push_reserved(slot, to, m);
                }
            }
            let tag = |e: &Event| *e.msg.payload.downcast_ref::<u32>().unwrap();
            let popped = |q: &mut EventQueue| {
                std::iter::from_fn(|| q.pop()).map(|e| (e.time, e.target, tag(&e))).collect::<Vec<_>>()
            };
            let (want, got) = (popped(&mut plain), popped(&mut perturbed));
            proptest::prop_assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
            for to in 0..5 {
                let of = |v: &[(SimTime, ActorId, u32)]| {
                    v.iter().filter(|e| e.1 == ActorId(to)).copied().collect::<Vec<_>>()
                };
                proptest::prop_assert_eq!(of(&got), of(&want));
            }
        }
    }

    #[test]
    fn some_seed_reorders_actors_due_at_one_instant() {
        let order = |seed| {
            let mut q = EventQueue::perturbed(seed);
            for to in 0..8 {
                q.push(SimTime(5), ActorId(to), msg(to));
            }
            std::iter::from_fn(|| q.pop())
                .map(|e| e.target.0)
                .collect::<Vec<_>>()
        };
        assert!((0..4).any(|seed| order(seed) != (0..8).collect::<Vec<_>>()));
        assert_eq!(order(7), order(7), "a seed picks one order");
    }

    #[test]
    fn jitter_is_zero_without_a_seed_and_at_most_a_nanosecond_with_one() {
        let mut plain = EventQueue::new();
        let mut perturbed = EventQueue::perturbed(3);
        let mut draws = Vec::new();
        for i in 0..64 {
            assert_eq!(plain.jitter_ns(), 0);
            draws.push(perturbed.jitter_ns());
            plain.push(SimTime(i), ActorId(0), msg(0));
            perturbed.push(SimTime(i), ActorId(0), msg(0));
        }
        assert!(draws.iter().all(|&j| j <= 1) && draws.contains(&0) && draws.contains(&1));
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
