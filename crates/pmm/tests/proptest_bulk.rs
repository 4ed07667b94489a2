//! Property tests for the PMM's bulk engine (`pmm::bulk::BulkRun`), driven
//! the way the manager's pump drives it but with a scripted fabric: under
//! any queue shape, window, admission pattern and completion order the
//! engine never exceeds its window, issues every queued chunk exactly once
//! per phase, coalesces only contiguous full-size chunks into a scrub,
//! changes phase only with nothing in flight, issues nothing on a denied
//! admission, and calls divergent exactly the chunks on which the two
//! halves' digests differ or are missing.

use pmm::bulk::{BulkRun, Chunk, Phase, Step, SCRUB_BATCH};
use proptest::prelude::*;
use std::collections::VecDeque;

const CHUNK: u32 = 8;
/// A run's parties: the source (0) and the destination (1).
const PARTIES: usize = 2;

/// A unit the model believes is in flight.
enum Unit {
    /// The chunk at this offset.
    Copy(u64),
    Scrub {
        off: u64,
        /// Digest vector per party still to deliver.
        pending: Vec<(usize, Vec<u64>)>,
    },
}

/// Endless dice from a finite generated tape, and the one thing the
/// scripted fabric remembers across phases: whether the engine's retry
/// timer is outstanding.
struct Dice<'a> {
    tape: &'a [u8],
    at: usize,
    timer_armed: bool,
}
impl Dice<'_> {
    fn roll(&mut self, n: usize) -> usize {
        self.at += 1;
        self.tape[self.at % self.tape.len()] as usize % n.max(1)
    }
}

/// Cut `(gap, len)` extents into a chunk queue, as the manager does.
fn queue_of(extents: &[(u64, u64)]) -> Vec<Chunk> {
    let (mut q, mut at) = (Vec::new(), 0u64);
    for &(gap, len) in extents {
        at += gap * CHUNK as u64;
        let mut off = 0;
        while off < len {
            let n = (CHUNK as u64).min(len - off);
            q.push((at + off, n as u32));
            off += n;
        }
        at += len;
    }
    q
}

/// Drive one phase to its `Transition`; returns the chunks the model says
/// diverged (always empty for a copy phase).
fn drive_phase(
    run: &mut BulkRun,
    phase: Phase,
    expected: &[Chunk],
    window: u32,
    dice: &mut Dice<'_>,
) -> Vec<Chunk> {
    let mut todo: VecDeque<Chunk> = expected.iter().copied().collect();
    let mut inflight: Vec<Unit> = Vec::new();
    let mut divergent: Vec<Chunk> = Vec::new();
    loop {
        assert!(run.inflight() <= window, "window exceeded");
        assert_eq!(run.inflight() as usize, inflight.len());
        let deny = dice.roll(4) == 0;
        let step = run.next(|_| if deny { Err(7) } else { Ok(()) });
        match step {
            Step::Copy { off, len } => {
                assert_eq!(phase, Phase::Copy);
                assert!(!deny, "issued on a denied admission");
                assert_eq!(todo.pop_front(), Some((off, len)), "out of order or twice");
                inflight.push(Unit::Copy(off));
            }
            Step::Scrub { off, len } => {
                assert_eq!(phase, Phase::Verify);
                // The run is a prefix of what is still queued: contiguous,
                // every chunk but the last full-size, at most a batch.
                let (mut covered, mut parts) = (0u64, Vec::new());
                while covered < len {
                    let (o, l) = todo.pop_front().expect("scrub past the queue");
                    assert_eq!(o, off + covered, "scrub run not contiguous");
                    covered += l as u64;
                    parts.push((o, l));
                }
                assert_eq!(covered, len);
                assert!(parts.len() <= SCRUB_BATCH as usize);
                assert!(parts[..parts.len() - 1].iter().all(|&(_, l)| l == CHUNK));
                // Per chunk: both parties agree, one differs, or one's
                // vector stops short of it.
                let mut vectors = vec![Vec::new(); PARTIES];
                let mut short: Option<usize> = None;
                for (i, &(o, l)) in parts.iter().enumerate() {
                    let fate = dice.roll(5);
                    let odd = dice.roll(PARTIES);
                    if fate == 0 && short.is_none() && i + 1 == parts.len() {
                        short = Some(odd);
                    }
                    for (p, v) in vectors.iter_mut().enumerate() {
                        if short == Some(p) {
                            continue;
                        }
                        v.push(if fate == 1 && p == odd { o + 1 } else { o });
                    }
                    if fate == 1 || short.is_some() {
                        divergent.push((o, l));
                    }
                }
                let mut pending: Vec<_> = vectors.into_iter().enumerate().collect();
                let k = dice.roll(PARTIES);
                pending.rotate_left(k);
                inflight.push(Unit::Scrub { off, pending });
            }
            Step::Backoff { wait_ns, arm } => {
                assert!(deny && phase == Phase::Copy && wait_ns == 7);
                assert_eq!(arm, !dice.timer_armed, "one retry timer at a time");
                dice.timer_armed = dice.roll(2) == 0;
                if !dice.timer_armed {
                    run.backoff_expired();
                }
            }
            Step::Wait => {
                assert!(!inflight.is_empty(), "waiting on nothing");
                let i = dice.roll(inflight.len());
                let done = match &mut inflight[i] {
                    Unit::Copy(off) => {
                        assert!(run.copy_done(*off), "one ack retires a copy");
                        assert!(!run.copy_done(*off), "a second ack counted");
                        true
                    }
                    Unit::Scrub { off, pending } => {
                        let (party, digests) = pending.pop().expect("delivered twice");
                        let done = run.scrub_done(*off, party, digests);
                        assert_eq!(done, pending.is_empty());
                        done
                    }
                };
                if done {
                    inflight.swap_remove(i);
                }
            }
            Step::Transition(drained) => {
                assert_eq!(drained, phase);
                assert!(inflight.is_empty(), "transition with units in flight");
                assert!(todo.is_empty(), "transition with chunks never issued");
                divergent.sort_unstable();
                return divergent;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn engine_invariants_hold_under_any_schedule(
        extents in proptest::collection::vec((0u64..3, 1u64..(CHUNK as u64 * 90)), 1..5),
        window in 1u32..6,
        tape in proptest::collection::vec(any::<u8>(), 16..64),
    ) {
        let mut dice = Dice {
            tape: &tape,
            at: 0,
            timer_armed: false,
        };
        let all = queue_of(&extents);
        let mut run = BulkRun::new(Phase::Verify, all.iter().copied().collect(), window, CHUNK);
        let mut expected = all;
        // Verify, re-copy what diverged, verify that: as a resilver does.
        for _ in 0..3 {
            let divergent = drive_phase(&mut run, Phase::Verify, &expected, window, &mut dice);
            prop_assert_eq!(run.take_divergent(), divergent.clone());
            if divergent.is_empty() {
                break;
            }
            run.start(Phase::Copy, divergent.iter().copied().collect());
            let none = drive_phase(&mut run, Phase::Copy, &divergent, window, &mut dice);
            prop_assert!(none.is_empty() && run.take_divergent().is_empty());
            run.start(Phase::Verify, divergent.iter().copied().collect());
            expected = divergent;
        }
    }
}
