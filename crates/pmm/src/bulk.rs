//! The resilver's windowed copy/verify engine, as a pure state machine.
//!
//! A [`BulkRun`] is a queue of chunks, a phase and a bounded number of
//! units in flight, between two parties: a source (party 0, the
//! survivor) and a destination (party 1, the revived half). In the copy
//! phase one unit is one chunk, moved by one device-to-device copy; in
//! the verify phase one unit is a *run* of contiguous chunks that both
//! parties digest with a single coalesced scrub command each. The engine
//! decides what to issue next and when a phase has drained ([`Step`]); it
//! owns no clock and no network, so the manager's pump is reduced to the
//! resilver's transition rule and the engine itself can be
//! property-tested (as `simnet::qos::PortScheduler` is).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Most contiguous chunks one scrub command covers.
pub const SCRUB_BATCH: u32 = 64;

/// A chunk of the range a run works on: `(offset, length)`.
pub type Chunk = (u64, u32);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Copying queued chunks source → destination.
    Copy,
    /// Having both parties digest queued chunks, and comparing.
    Verify,
}

/// What the pump should do next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// Issue the device copy of one chunk (admission already bought).
    Copy { off: u64, len: u32 },
    /// Issue one scrub of `len` bytes at `off` to each party.
    Scrub { off: u64, len: u64 },
    /// The phase's queue is drained and nothing is in flight: the owner
    /// applies its transition rule ([`BulkRun::start`] or finish).
    Transition(Phase),
    /// Bulk admission was denied for `wait_ns`; `arm` asks the owner to
    /// set the one retry timer (it is already set otherwise).
    Backoff { wait_ns: u64, arm: bool },
    /// Window full, or draining: wait for a completion.
    Wait,
}

/// Digest vectors of one scrub run in flight: source's, destination's.
struct ScrubSlots {
    len: u64,
    digests: [Option<Vec<u64>>; 2],
}

pub struct BulkRun {
    phase: Phase,
    queue: VecDeque<Chunk>,
    /// Units in flight in the current phase.
    inflight: u32,
    /// Most units in flight at once.
    window: u32,
    /// Full chunk size: the stride of a scrub's digests.
    chunk: u32,
    /// Offsets of the chunks whose copy is in flight.
    copy_pending: BTreeSet<u64>,
    /// Per-run digest slots for scrubs in flight, by run offset.
    scrub_pending: BTreeMap<u64, ScrubSlots>,
    /// Chunks the verify pass in progress found divergent.
    divergent: Vec<Chunk>,
    backoff_armed: bool,
}

impl BulkRun {
    /// A run starting in `phase` over `queue`, cut into pieces of at most
    /// `chunk` bytes, `window` units at a time.
    pub fn new(phase: Phase, queue: VecDeque<Chunk>, window: u32, chunk: u32) -> Self {
        BulkRun {
            phase,
            queue,
            inflight: 0,
            window: window.max(1),
            chunk: chunk.max(1),
            copy_pending: BTreeSet::new(),
            scrub_pending: BTreeMap::new(),
            divergent: Vec::new(),
            backoff_armed: false,
        }
    }

    pub fn inflight(&self) -> u32 {
        self.inflight
    }

    /// Enter `phase` over `queue` — only from a [`Step::Transition`].
    pub fn start(&mut self, phase: Phase, queue: VecDeque<Chunk>) {
        assert_eq!(self.inflight, 0, "phase change with units in flight");
        self.phase = phase;
        self.queue = queue;
    }

    /// The chunks the verify pass just drained found divergent, in
    /// offset order (so the next pass's scrub runs stay contiguous).
    pub fn take_divergent(&mut self) -> Vec<Chunk> {
        let mut d = std::mem::take(&mut self.divergent);
        d.sort_unstable();
        d
    }

    /// Decide the next step. A copy moves payload and must buy
    /// `admit(bytes)` from the fabric first — `Err(wait_ns)` issues
    /// nothing; a verify ships digests only and is admitted free. Scrub
    /// runs extend only past full-size chunks, so the device's fixed
    /// stride from a run's start meets every queue entry's boundary.
    pub fn next(&mut self, admit: impl FnOnce(u64) -> Result<(), u64>) -> Step {
        let Some(&(off, len)) = self.queue.front() else {
            return match self.inflight {
                0 => Step::Transition(self.phase),
                _ => Step::Wait,
            };
        };
        if self.inflight >= self.window {
            return Step::Wait;
        }
        if self.phase == Phase::Copy {
            if let Err(wait_ns) = admit(len as u64) {
                let arm = !std::mem::replace(&mut self.backoff_armed, true);
                return Step::Backoff { wait_ns, arm };
            }
            self.queue.pop_front();
            self.inflight += 1;
            self.copy_pending.insert(off);
            return Step::Copy { off, len };
        }
        self.queue.pop_front();
        self.inflight += 1;
        let (mut total, mut last, mut parts) = (len as u64, len, 1);
        while parts < SCRUB_BATCH && last == self.chunk {
            match self.queue.front() {
                Some(&(o, l)) if o == off + total => {
                    self.queue.pop_front();
                    total += l as u64;
                    last = l;
                    parts += 1;
                }
                _ => break,
            }
        }
        let slots = ScrubSlots {
            len: total,
            digests: [None, None],
        };
        self.scrub_pending.insert(off, slots);
        Step::Scrub { off, len: total }
    }

    /// The backoff timer fired: the next denial arms a new one.
    pub fn backoff_expired(&mut self) {
        self.backoff_armed = false;
    }

    /// The device copy of the chunk at `off` was acknowledged. `true`
    /// if it was in flight: the unit left the window.
    pub fn copy_done(&mut self, off: u64) -> bool {
        if !self.copy_pending.remove(&off) {
            return false;
        }
        self.inflight -= 1;
        true
    }

    /// `party`'s digests (0 the source, 1 the destination) for the scrub
    /// run at `off` arrived. `true` once both have: the run left the
    /// window, and each of its chunks on which the two digests differ —
    /// or that a short vector does not cover — is on the divergent list.
    pub fn scrub_done(&mut self, off: u64, party: usize, digests: Vec<u64>) -> bool {
        let Some(slots) = self.scrub_pending.get_mut(&off) else {
            return false;
        };
        slots.digests[party] = Some(digests);
        let ScrubSlots {
            len,
            digests: [Some(src), Some(dst)],
        } = slots
        else {
            return false;
        };
        let (len, chunk) = (*len, self.chunk as u64);
        for i in 0..len.div_ceil(chunk) {
            let first = src.get(i as usize);
            if first.is_none() || dst.get(i as usize) != first {
                let at = i * chunk;
                self.divergent.push((off + at, chunk.min(len - at) as u32));
            }
        }
        self.scrub_pending.remove(&off);
        self.inflight -= 1;
        true
    }
}
