//! Property tests for the engine's ordering guarantees.

use proptest::prelude::*;
use simcore::event::EventQueue;
use simcore::{ActorId, Msg, SimTime, TimerId};
use std::collections::BTreeMap;

proptest! {
    /// Events pop in (time, schedule-order): a stable sort of the input.
    #[test]
    fn queue_pops_stable_sorted(times in proptest::collection::vec(0u64..100, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime(*t), ActorId(i as u32), Msg::new(ActorId(0), *t));
        }
        let mut expected: Vec<(u64, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, t)| (*t, i as u32))
            .collect();
        expected.sort_by_key(|(t, i)| (*t, *i)); // stable by construction
        let got: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.0, e.target.0))
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// discard_for removes exactly the targeted actor's events and
    /// preserves the order of the rest.
    #[test]
    fn discard_preserves_others(
        times in proptest::collection::vec((0u64..50, 0u32..5), 1..100),
        victim in 0u32..5
    ) {
        let mut q = EventQueue::new();
        let mut q2 = EventQueue::new();
        for (t, a) in &times {
            q.push(SimTime(*t), ActorId(*a), Msg::new(ActorId(0), ()));
            if *a != victim {
                q2.push(SimTime(*t), ActorId(*a), Msg::new(ActorId(0), ()));
            }
        }
        q.discard_for(ActorId(victim));
        let got: Vec<(u64, u32)> =
            std::iter::from_fn(|| q.pop()).map(|e| (e.time.0, e.target.0)).collect();
        prop_assert!(got.iter().all(|(_, a)| *a != victim));
        prop_assert_eq!(got.len(), times.iter().filter(|(_, a)| *a != victim).count());
        // Relative time-order intact.
        for w in got.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
        let _ = q2;
    }

    /// Heap + timer set behaves as ONE heap from which entries can be
    /// deleted: against a single ordered map keyed by `(time, seq)`, the
    /// merged pop order is identical, `len` / `peek_time` never count a
    /// disarmed timer, a disarm reports exactly whether the timer was
    /// still armed (false after it fired, was disarmed or was discarded
    /// with its actor) and removes nothing else.
    #[test]
    fn timers_merge_like_one_heap(
        ops in proptest::collection::vec((0u8..9, 0u64..40, 0u32..4, 0usize..64), 1..300)
    ) {
        let mut q = EventQueue::new();
        // Reference: (time, seq) -> (target, is_timer). `seq` mirrors the
        // queue's own counter: one per push or arm, in call order.
        let mut model: BTreeMap<(u64, u64), (u32, bool)> = BTreeMap::new();
        let mut handles: Vec<(TimerId, (u64, u64))> = Vec::new();
        let mut seq = 0u64;
        for (op, t, actor, pick) in ops {
            match op {
                0..=1 => {
                    q.push(SimTime(t), ActorId(actor), Msg::new(ActorId(0), seq));
                    model.insert((t, seq), (actor, false));
                    seq += 1;
                }
                2..=3 => {
                    let id = q.arm(SimTime(t), ActorId(actor), Msg::new(ActorId(0), seq));
                    model.insert((t, seq), (actor, true));
                    handles.push((id, (t, seq)));
                    seq += 1;
                }
                4..=5 if !handles.is_empty() => {
                    // Any handle ever issued: live, fired, disarmed, discarded.
                    let (id, key) = handles[pick % handles.len()];
                    let live = matches!(model.get(&key), Some((_, true)));
                    prop_assert_eq!(q.disarm(id), live);
                    if live {
                        model.remove(&key);
                    }
                }
                6 => {
                    q.discard_for(ActorId(actor));
                    model.retain(|_, (a, _)| *a != actor);
                }
                _ => {
                    let want = model.pop_first();
                    let got = q.pop();
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(e), Some(((t, s), (a, _)))) = (got, want) {
                        prop_assert_eq!((e.time.0, e.seq, e.target.0), (t, s, a));
                        // The payload rode along with its key.
                        prop_assert_eq!(e.msg.get::<u64>(), Some(&s));
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert_eq!(
                q.peek_time().map(|t| t.0),
                model.keys().next().map(|(t, _)| *t)
            );
        }
        // Drain: the survivors leave in one heap's order.
        let rest: Vec<(u64, u64)> =
            std::iter::from_fn(|| q.pop()).map(|e| (e.time.0, e.seq)).collect();
        prop_assert_eq!(rest, model.keys().copied().collect::<Vec<_>>());
    }

    /// Histogram quantiles are monotone and bounded by min/max.
    #[test]
    fn histogram_quantiles_monotone(vals in proptest::collection::vec(1u64..1_000_000_000, 1..500)) {
        let mut h = simcore::Histogram::new();
        for v in &vals {
            h.record(*v);
        }
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|q| h.quantile(*q))
            .collect();
        for w in qs.windows(2) {
            prop_assert!(w[0] <= w[1], "quantiles not monotone: {qs:?}");
        }
        let lo = *vals.iter().min().unwrap();
        let hi = *vals.iter().max().unwrap();
        prop_assert!(qs[0] >= lo.min(h.min()));
        prop_assert_eq!(*qs.last().unwrap(), hi);
    }
}
