//! Property tests for the pure QoS scheduler core (`simnet::qos`).
//!
//! The scheduler is clock- and RNG-free, so its contracts can be checked
//! directly over arbitrary workloads:
//!
//! 1. **Byte conservation** — every enqueued byte is served exactly once,
//!    per class, and every payload emerges exactly once, under every
//!    policy and any interleaving of enqueues and drains.
//! 2. **No starvation** — under DRR, a queued `Bulk` op completes within
//!    a bounded number of served bytes no matter how hard `Commit`
//!    pushes.
//! 3. **Determinism** — identical event sequences (same proptest seed)
//!    produce identical segment schedules.

use proptest::prelude::*;
use simnet::qos::{PortScheduler, SchedPolicy, TrafficClass, CLASS_COUNT};

const QUANTA: [u32; CLASS_COUNT] = [64 << 10, 16 << 10, 8 << 10];

fn class_of(i: usize) -> TrafficClass {
    TrafficClass::ALL[i % CLASS_COUNT]
}

fn policy_of(i: usize) -> SchedPolicy {
    match i % 3 {
        0 => SchedPolicy::Fifo,
        1 => SchedPolicy::Drr,
        _ => SchedPolicy::StrictCommit,
    }
}

/// One step of a workload script: enqueue an op, or serve some segments.
#[derive(Clone, Debug)]
enum Ev {
    Enq { class: usize, bytes: u64 },
    Drain(usize),
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0usize..CLASS_COUNT, 1u64..200_000).prop_map(|(class, bytes)| Ev::Enq { class, bytes }),
        (1usize..8).prop_map(Ev::Drain),
    ]
}

proptest! {
    /// Under any policy and any enqueue/drain interleaving, per-class
    /// served bytes equal per-class enqueued bytes and each payload is
    /// released exactly once — nothing dropped, duplicated, or invented.
    #[test]
    fn bytes_conserved_and_payloads_exactly_once(
        policy_sel in 0usize..3,
        script in proptest::collection::vec(ev_strategy(), 1..60),
    ) {
        let mut s: PortScheduler<u64> = PortScheduler::new(policy_of(policy_sel), QUANTA);
        let mut enq_bytes = [0u64; CLASS_COUNT];
        let mut served_bytes = [0u64; CLASS_COUNT];
        let mut next_payload = 0u64;
        let mut outstanding = simcore::hash::FastSet::default();
        let mut now = 0u64;

        // Plain assert! inside the helper: proptest catches panics and
        // shrinks them just like prop_assert! failures.
        let serve_one = |s: &mut PortScheduler<u64>,
                         served: &mut [u64; CLASS_COUNT],
                         outstanding: &mut simcore::hash::FastSet<u64>,
                         now: u64|
         -> bool {
            match s.next_segment(now) {
                Some(seg) => {
                    served[seg.class.idx()] += seg.bytes;
                    if let Some(p) = seg.done {
                        assert!(outstanding.remove(&p), "payload {p} released twice");
                    }
                    true
                }
                None => false,
            }
        };

        for ev in &script {
            now += 10;
            match *ev {
                Ev::Enq { class, bytes } => {
                    enq_bytes[class % CLASS_COUNT] += bytes;
                    outstanding.insert(next_payload);
                    s.enqueue(class_of(class), bytes, now, next_payload);
                    next_payload += 1;
                }
                Ev::Drain(n) => {
                    for _ in 0..n {
                        if !serve_one(&mut s, &mut served_bytes, &mut outstanding, now) {
                            break;
                        }
                    }
                }
            }
        }
        // Drain to empty.
        while serve_one(&mut s, &mut served_bytes, &mut outstanding, now) {}

        prop_assert!(s.is_empty());
        prop_assert!(outstanding.is_empty(), "payloads never released: {outstanding:?}");
        for c in TrafficClass::ALL {
            prop_assert_eq!(
                served_bytes[c.idx()], enq_bytes[c.idx()],
                "class {:?}: served != enqueued", c
            );
            prop_assert_eq!(s.stats[c.idx()].bytes, enq_bytes[c.idx()]);
        }
    }

    /// DRR never starves `Bulk`: with a bulk op queued and `Commit`
    /// backlogged indefinitely, the bulk op finishes within a bounded
    /// number of served bytes (each DRR round serves at most one quantum
    /// per class, so the bound is rounds × total quantum).
    #[test]
    fn drr_never_starves_bulk_under_commit_load(
        bulk_bytes in 1u64..300_000,
        commit_bytes in 1u64..70_000,
    ) {
        let mut s: PortScheduler<u64> = PortScheduler::new(SchedPolicy::Drr, QUANTA);
        s.enqueue(TrafficClass::Bulk, bulk_bytes, 0, 0);
        let mut next_payload = 1u64;
        let mut served_total = 0u64;
        let bulk_quantum = QUANTA[TrafficClass::Bulk.idx()] as u64;
        let rounds_needed = bulk_bytes.div_ceil(bulk_quantum);
        // Per DRR round at most one quantum per class is served; +2 rounds
        // of slack for cursor position at start.
        let budget = (rounds_needed + 2) * QUANTA.iter().map(|&q| q as u64).sum::<u64>();

        loop {
            // Keep commit saturated: it must always have a queued op.
            while s.depth(TrafficClass::Commit) < 2 {
                s.enqueue(TrafficClass::Commit, commit_bytes, 0, next_payload);
                next_payload += 1;
            }
            let seg = s.next_segment(0).expect("backlogged scheduler went idle");
            served_total += seg.bytes;
            if seg.done == Some(0) {
                break; // bulk op completed
            }
            prop_assert!(
                served_total <= budget,
                "bulk op ({bulk_bytes} B) not done after {served_total} served bytes (budget {budget})"
            );
        }
    }

    /// Identical event sequences produce identical schedules: replaying
    /// the same script (same proptest seed) against two fresh schedulers
    /// yields the same (class, bytes, payload) segment stream.
    #[test]
    fn identical_inputs_yield_identical_schedules(
        policy_sel in 0usize..3,
        script in proptest::collection::vec(ev_strategy(), 1..60),
    ) {
        let run = |script: &[Ev]| -> Vec<(TrafficClass, u64, Option<u64>)> {
            let mut s: PortScheduler<u64> = PortScheduler::new(policy_of(policy_sel), QUANTA);
            let mut next_payload = 0u64;
            let mut out = Vec::new();
            let mut now = 0u64;
            for ev in script {
                now += 10;
                match *ev {
                    Ev::Enq { class, bytes } => {
                        s.enqueue(class_of(class), bytes, now, next_payload);
                        next_payload += 1;
                    }
                    Ev::Drain(n) => {
                        for _ in 0..n {
                            match s.next_segment(now) {
                                Some(seg) => out.push((seg.class, seg.bytes, seg.done)),
                                None => break,
                            }
                        }
                    }
                }
            }
            while let Some(seg) = s.next_segment(now) {
                out.push((seg.class, seg.bytes, seg.done));
            }
            out
        };
        prop_assert_eq!(run(&script), run(&script));
    }
}

proptest! {
    /// `serve_alone` on an empty scheduler is `enqueue` + `next_segment`
    /// when the op leaves in one segment, and leaves no trace when it
    /// does not: after any history, both schedulers serve the same
    /// segments from then on and keep the same counters.
    #[test]
    fn serve_alone_is_enqueue_then_next_segment(
        policy_sel in 0usize..3,
        script in proptest::collection::vec(
            (ev_strategy(), 0usize..CLASS_COUNT, 1u64..100_000),
            1..40,
        ),
    ) {
        let policy = policy_of(policy_sel);
        let mut alone: PortScheduler<u64> = PortScheduler::new(policy, QUANTA);
        let mut plain: PortScheduler<u64> = PortScheduler::new(policy, QUANTA);
        for (i, (ev, class, bytes)) in script.into_iter().enumerate() {
            let now = i as u64 * 10;
            if alone.is_empty() {
                let class = class_of(class);
                match alone.serve_alone(class, bytes, u64::MAX) {
                    Ok((seg, _)) => {
                        plain.enqueue(class, bytes, now, u64::MAX);
                        let want = plain.next_segment(now).unwrap();
                        prop_assert_eq!(
                            (seg.class, seg.bytes, seg.first_wait_ns, seg.done),
                            (want.class, want.bytes, want.first_wait_ns, want.done)
                        );
                        prop_assert!(plain.is_empty());
                    }
                    Err(payload) => {
                        prop_assert_eq!(payload, u64::MAX);
                        prop_assert!(alone.is_empty());
                    }
                }
            }
            match ev {
                Ev::Enq { class, bytes } => {
                    alone.enqueue(class_of(class), bytes, now, i as u64);
                    plain.enqueue(class_of(class), bytes, now, i as u64);
                }
                Ev::Drain(k) => {
                    for _ in 0..k {
                        let (a, p) = (alone.next_segment(now), plain.next_segment(now));
                        let key = |s: Option<simnet::qos::Segment<u64>>| {
                            s.map(|s| (s.class, s.bytes, s.first_wait_ns, s.done))
                        };
                        prop_assert_eq!(key(a), key(p));
                    }
                }
            }
            for c in 0..CLASS_COUNT {
                let (a, p) = (alone.stats[c], plain.stats[c]);
                prop_assert_eq!(
                    (a.ops, a.bytes, a.max_wait_ns, a.peak_depth),
                    (p.ops, p.bytes, p.max_wait_ns, p.peak_depth)
                );
            }
        }
    }
}
