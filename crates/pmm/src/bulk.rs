//! The PMM's one windowed copy/verify engine, as a pure state machine.
//!
//! A [`BulkRun`] is a queue of chunks, a phase and a bounded number of
//! units in flight. In the copy phase one unit is one chunk, moved by a
//! device-to-device copy per destination; in the verify phase one unit is
//! a *run* of contiguous chunks that every party digests with a single
//! coalesced scrub command. The engine decides what to issue next and
//! when a phase has drained ([`Step`]); it owns no clock and no network,
//! so the manager's pumps are reduced to their transition rules and the
//! engine itself can be property-tested (as `simnet::qos::PortScheduler`
//! is).

use std::collections::{BTreeMap, VecDeque};

/// Most contiguous chunks one scrub command covers.
pub const SCRUB_BATCH: u32 = 64;

/// A chunk of the range a run works on: `(offset, length)`.
pub type Chunk = (u64, u32);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Copying queued chunks source → destination(s).
    Copy,
    /// Having every party digest queued chunks, and comparing.
    Verify,
}

/// What the pump should do next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// Issue the device copies of one chunk (admission already bought).
    Copy { off: u64, len: u32 },
    /// Issue one scrub of `len` bytes at `off` to every party.
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

/// Digest vectors of one scrub run in flight, one slot per party.
struct ScrubSlots {
    len: u64,
    digests: Vec<Option<Vec<u64>>>,
}

pub struct BulkRun {
    phase: Phase,
    queue: VecDeque<Chunk>,
    /// Units in flight in the current phase.
    inflight: u32,
    /// Devices taking part: party 0 is the source, the rest destinations.
    /// A copy unit is one device copy per destination; a verify unit
    /// compares every party's digests.
    parties: usize,
    /// Most units in flight at once.
    window: u32,
    /// Full chunk size: the stride of a scrub's digests.
    chunk: u32,
    /// Copy acks outstanding per chunk in flight, by offset.
    copy_pending: BTreeMap<u64, u32>,
    /// Per-run digest slots for scrubs in flight, by run offset.
    scrub_pending: BTreeMap<u64, ScrubSlots>,
    /// Chunks the verify pass in progress found divergent.
    divergent: Vec<Chunk>,
    backoff_armed: bool,
}

impl BulkRun {
    /// A run among `parties` devices starting in `phase` over `queue`, cut
    /// into pieces of at most `chunk` bytes, `window` units at a time.
    pub fn new(
        phase: Phase,
        queue: VecDeque<Chunk>,
        parties: usize,
        window: u32,
        chunk: u32,
    ) -> Self {
        assert!(parties >= 2, "a source and at least one destination");
        BulkRun {
            phase,
            queue,
            inflight: 0,
            parties,
            window: window.max(1),
            chunk: chunk.max(1),
            copy_pending: BTreeMap::new(),
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
            let legs = self.parties as u32 - 1;
            if let Err(wait_ns) = admit(len as u64 * legs as u64) {
                let arm = !std::mem::replace(&mut self.backoff_armed, true);
                return Step::Backoff { wait_ns, arm };
            }
            self.queue.pop_front();
            self.inflight += 1;
            self.copy_pending.insert(off, legs);
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
        let digests = vec![None; self.parties];
        let slots = ScrubSlots {
            len: total,
            digests,
        };
        self.scrub_pending.insert(off, slots);
        Step::Scrub { off, len: total }
    }

    /// The backoff timer fired: the next denial arms a new one.
    pub fn backoff_expired(&mut self) {
        self.backoff_armed = false;
    }

    /// One device copy of the chunk at `off` was acknowledged. `true`
    /// once every leg of the chunk has been: the unit left the window.
    pub fn copy_done(&mut self, off: u64) -> bool {
        let Some(left) = self.copy_pending.get_mut(&off) else {
            return false;
        };
        *left -= 1;
        if *left > 0 {
            return false;
        }
        self.copy_pending.remove(&off);
        self.inflight -= 1;
        true
    }

    /// `party`'s digests for the scrub run at `off` arrived. `true` once
    /// every party's have: the run left the window, and each of its
    /// chunks on which the parties' digests differ — or that a short
    /// vector does not cover — is on the divergent list.
    pub fn scrub_done(&mut self, off: u64, party: usize, digests: Vec<u64>) -> bool {
        let Some(slots) = self.scrub_pending.get_mut(&off) else {
            return false;
        };
        slots.digests[party] = Some(digests);
        if slots.digests.iter().any(Option::is_none) {
            return false;
        }
        let ScrubSlots { len, digests } = self.scrub_pending.remove(&off).expect("just seen");
        let digests: Vec<Vec<u64>> = digests.into_iter().flatten().collect();
        let chunk = self.chunk as u64;
        for i in 0..len.div_ceil(chunk) {
            let first = digests[0].get(i as usize);
            if first.is_none() || digests.iter().any(|d| d.get(i as usize) != first) {
                let at = i * chunk;
                self.divergent.push((off + at, chunk.min(len - at) as u32));
            }
        }
        self.inflight -= 1;
        true
    }
}
