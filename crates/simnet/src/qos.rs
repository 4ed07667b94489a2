//! Fabric quality-of-service: traffic classes, the per-port packet
//! scheduler, and token-bucket admission control for bulk movers.
//!
//! The paper's value proposition — remotely-persisted commits stay fast
//! *while* the system tolerates and repairs faults — only holds if a
//! 113 MB/s resilver cannot monopolize the link a commit write needs.
//! Tavakkol et al. showed RDMA synchronous mirroring keeps its latency
//! contract under load only with deliberate network-level pacing; this
//! module is that pacing for simnet.
//!
//! Three mechanisms, composable and all **opt-in** (a `Network` with
//! `QosConfig::disabled()` behaves bit-identically to the pre-QoS model):
//!
//! 1. **Traffic classes.** Every fabric operation is tagged
//!    [`TrafficClass::Commit`] (latency-critical publication),
//!    [`TrafficClass::Audit`] (trail data batches) or
//!    [`TrafficClass::Bulk`] (resilver copy and scrub, recovery scans). Replies inherit the request's class.
//! 2. **Per-(port, class) queues + a scheduler.** With QoS enabled the
//!    *device-side* port becomes an honest store-and-forward stage: it is
//!    occupied for the full wire time of each transfer, and concurrent
//!    arrivals queue per class. [`PortScheduler`] arbitrates: plain FIFO
//!    (class-blind — what "no QoS" degenerates to once contention is
//!    modelled), deficit round robin with per-class quanta, or strict
//!    priority for `Commit` over DRR for the rest. Large transfers are
//!    served in quantum-sized segments so a commit behind a 64 KiB bulk
//!    chunk waits for one segment (~tens of µs), not the whole chunk
//!    (~540 µs).
//! 3. **Token-bucket admission for bulk.** Movers ask
//!    [`crate::Network::try_bulk_admission`] before launching a transfer
//!    window and back off for the returned wait when the bucket is dry,
//!    capping the *offered* bulk load at `bulk_share` of link bandwidth
//!    regardless of scheduler policy.
//!
//! The scheduler core is pure (no RNG, no clock of its own) so its
//! conservation / no-starvation / determinism properties are proptested
//! directly (`crates/simnet/tests/qos_props.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which service class a fabric operation travels in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum TrafficClass {
    /// Latency-critical commit-path traffic: control-cell publications,
    /// TMF/PMM control RPCs, health probes. The default for untagged ops.
    #[default]
    Commit = 0,
    /// Audit-trail data: batched mirrored trail writes and their persist
    /// phase. Throughput-sensitive but still on the commit critical path
    /// (a commit ack waits for the batch covering its LSN).
    Audit = 1,
    /// Background movers: the resilver's device-to-device copies and
    /// device scrubs, recovery scans.
    /// Bandwidth-hungry, latency-tolerant.
    Bulk = 2,
}

/// Number of traffic classes (array dimension for per-class state).
pub const CLASS_COUNT: usize = 3;

impl TrafficClass {
    /// All classes, in priority order.
    pub const ALL: [TrafficClass; CLASS_COUNT] = [
        TrafficClass::Commit,
        TrafficClass::Audit,
        TrafficClass::Bulk,
    ];

    /// Dense index for per-class arrays.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Lower-case label used in stats keys and bench JSON.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Commit => "commit",
            TrafficClass::Audit => "audit",
            TrafficClass::Bulk => "bulk",
        }
    }
}

/// Arbitration discipline for a port's queued transfers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Class-blind arrival order, each op served whole. This is "QoS off
    /// with contention modelled honestly": a commit queues behind every
    /// bulk chunk ahead of it — the behaviour the other policies exist to
    /// fix.
    Fifo,
    /// Deficit round robin over the classes with per-class quanta: each
    /// round a class may serve up to its quantum in bytes, so bandwidth
    /// shares converge to the quantum ratios under backlog while unused
    /// share flows to whoever has traffic (work-conserving).
    Drr,
    /// `Commit` is served ahead of everything whenever it has traffic;
    /// `Audit`/`Bulk` share the remainder by DRR. Lowest commit latency;
    /// relies on admission control to keep commit load from starving the
    /// rest.
    StrictCommit,
}

/// Fabric QoS configuration, installed on a [`crate::Network`].
#[derive(Clone, Copy, Debug)]
pub struct QosConfig {
    /// Master switch. When false the transport uses the legacy analytic
    /// path (no device-side queueing, no classes) — bit-identical to the
    /// pre-QoS model.
    pub enabled: bool,
    pub policy: SchedPolicy,
    /// Per-class DRR quantum, bytes; also the segment size in which a
    /// class's transfers are served (bounds head-of-line blocking).
    /// Multiples of the packet size keep segmentation cost-neutral.
    pub quantum_bytes: [u32; CLASS_COUNT],
    /// Fraction of link bandwidth the bulk token bucket refills at.
    pub bulk_share: f64,
    /// Bulk bucket capacity, bytes: how much bulk may burst ahead of the
    /// sustained rate (one transfer window's worth is a good default).
    pub bulk_burst_bytes: u64,
}

impl QosConfig {
    /// QoS off: legacy transport behaviour.
    pub fn disabled() -> Self {
        QosConfig {
            enabled: false,
            policy: SchedPolicy::Fifo,
            quantum_bytes: [64 * 1024, 16 * 1024, 8 * 1024],
            bulk_share: 1.0,
            bulk_burst_bytes: u64::MAX,
        }
    }

    /// Contention modelled, no arbitration: class-blind FIFO ports and an
    /// uncapped bulk bucket. The "demonstrably unbounded p99" baseline.
    pub fn fifo() -> Self {
        QosConfig {
            enabled: true,
            ..QosConfig::disabled()
        }
    }

    /// Deficit-round-robin arbitration with an 8:2:1 commit:audit:bulk
    /// quantum ratio and bulk admission at `bulk_share` of the link.
    pub fn drr(bulk_share: f64) -> Self {
        QosConfig {
            enabled: true,
            policy: SchedPolicy::Drr,
            quantum_bytes: [64 * 1024, 16 * 1024, 8 * 1024],
            bulk_share,
            bulk_burst_bytes: 8 * 64 * 1024,
        }
    }

    /// Strict priority for `Commit` over DRR for the rest; bulk admission
    /// at `bulk_share` of the link.
    pub fn strict_commit(bulk_share: f64) -> Self {
        QosConfig {
            policy: SchedPolicy::StrictCommit,
            ..QosConfig::drr(bulk_share)
        }
    }
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig::disabled()
    }
}

/// Per-(port, class) counters: what moved and how long it queued.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassStats {
    /// Operations dispatched in this class.
    pub ops: u64,
    /// Bytes served (sum of segment lengths).
    pub bytes: u64,
    /// Longest time an op waited from enqueue to first dispatch, ns.
    pub max_wait_ns: u64,
    /// Deepest the class's queue has been, in ops.
    pub peak_depth: u64,
}

impl ClassStats {
    pub fn merge(&mut self, other: &ClassStats) {
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.max_wait_ns = self.max_wait_ns.max(other.max_wait_ns);
        self.peak_depth = self.peak_depth.max(other.peak_depth);
    }
}

/// One queued transfer awaiting service at a port.
struct QueuedOp<T> {
    /// Global arrival sequence (FIFO tie-break across classes).
    seq: u64,
    /// Bytes not yet served.
    remaining: u64,
    /// Enqueue timestamp, ns (for queueing-wait accounting).
    enq_ns: u64,
    /// Whether any segment has been dispatched yet.
    started: bool,
    /// Completion payload, surrendered with the final segment.
    payload: T,
}

/// One scheduling decision: serve `bytes` of some op on the wire.
pub struct Segment<T> {
    pub class: TrafficClass,
    pub bytes: u64,
    /// Queueing wait (enqueue → first dispatch), present on an op's first
    /// segment only.
    pub first_wait_ns: Option<u64>,
    /// The op's payload, present on its final segment only.
    pub done: Option<T>,
}

/// What an empty [`PortScheduler`] carries from one busy period to the
/// next: the DRR cursor and credits, the arrival counter, the counters.
#[derive(Clone, Copy)]
pub struct IdleState {
    deficit: [u64; CLASS_COUNT],
    cursor: usize,
    next_seq: u64,
    stats: [ClassStats; CLASS_COUNT],
}

/// The pure per-port scheduler: per-class FIFO queues arbitrated by
/// [`SchedPolicy`], serving one quantum-bounded segment per call.
///
/// Deliberately clock- and RNG-free: callers feed `now_ns` in and convert
/// segment bytes to wire time themselves, so identical call sequences
/// produce identical schedules (the determinism proptest drives this
/// directly).
pub struct PortScheduler<T> {
    queues: [VecDeque<QueuedOp<T>>; CLASS_COUNT],
    deficit: [u64; CLASS_COUNT],
    /// DRR cursor: which class the round-robin pointer is on.
    cursor: usize,
    policy: SchedPolicy,
    quantum: [u32; CLASS_COUNT],
    next_seq: u64,
    /// Per-class counters (peak depth updated on enqueue, the rest on
    /// dispatch); drained by the owner into network-level stats.
    pub stats: [ClassStats; CLASS_COUNT],
}

impl<T> PortScheduler<T> {
    pub fn new(policy: SchedPolicy, quantum: [u32; CLASS_COUNT]) -> Self {
        PortScheduler {
            queues: Default::default(),
            deficit: [0; CLASS_COUNT],
            cursor: 0,
            policy,
            quantum,
            next_seq: 0,
            stats: Default::default(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Ops currently queued in `class`.
    pub fn depth(&self, class: TrafficClass) -> usize {
        self.queues[class.idx()].len()
    }

    /// Admit an op of `bytes` (≥ 1) into `class`'s queue.
    pub fn enqueue(&mut self, class: TrafficClass, bytes: u64, now_ns: u64, payload: T) {
        let c = class.idx();
        self.queues[c].push_back(QueuedOp {
            seq: self.next_seq,
            remaining: bytes.max(1),
            enq_ns: now_ns,
            started: false,
            payload,
        });
        self.next_seq += 1;
        let depth = self.queues[c].len() as u64;
        if depth > self.stats[c].peak_depth {
            self.stats[c].peak_depth = depth;
        }
    }

    /// The state of this (empty) scheduler, for [`Self::restore`].
    pub fn idle_state(&self) -> IdleState {
        debug_assert!(self.is_empty());
        IdleState {
            deficit: self.deficit,
            cursor: self.cursor,
            next_seq: self.next_seq,
            stats: self.stats,
        }
    }

    /// Put this (empty) scheduler back in a state [`Self::idle_state`]
    /// took: as if nothing had been admitted since.
    pub fn restore(&mut self, state: IdleState) {
        debug_assert!(self.is_empty());
        self.deficit = state.deficit;
        self.cursor = state.cursor;
        self.next_seq = state.next_seq;
        self.stats = state.stats;
    }

    /// Admit an op into this empty scheduler and serve it at once, if it
    /// leaves in one segment: the segment comes back with the state the
    /// op found, for a later [`Self::restore`]. If it would not, the
    /// scheduler is left as it was and the payload is handed back.
    ///
    /// This is [`Self::enqueue`] then [`Self::next_segment`] at the same
    /// instant, without the queue: the op is the only one, so it is the
    /// one picked, and it has waited nothing.
    pub fn serve_alone(
        &mut self,
        class: TrafficClass,
        bytes: u64,
        payload: T,
    ) -> Result<(Segment<T>, IdleState), T> {
        debug_assert!(self.is_empty());
        let before = self.idle_state();
        let (c, bytes) = (class.idx(), bytes.max(1));
        self.next_seq += 1;
        self.stats[c].peak_depth = self.stats[c].peak_depth.max(1);
        if self.policy != SchedPolicy::Fifo {
            let picked = self.rr_pick(1 << c);
            debug_assert_eq!(picked, Some(class));
        }
        if bytes > self.budget(class) {
            self.restore(before);
            return Err(payload);
        }
        Ok((self.charge(class, bytes, Some(0), Some(payload)), before))
    }

    /// Pick the next segment to serve, or `None` if every queue is empty.
    pub fn next_segment(&mut self, now_ns: u64) -> Option<Segment<T>> {
        let class = match self.policy {
            SchedPolicy::Fifo => self.fifo_head()?,
            _ => {
                let busy = (0..CLASS_COUNT)
                    .filter(|&c| !self.queues[c].is_empty())
                    .fold(0, |mask, c| mask | 1 << c);
                self.rr_pick(busy)?
            }
        };
        let (c, budget) = (class.idx(), self.budget(class));
        let op = self.queues[c].front_mut().expect("picked non-empty class");
        let bytes = op.remaining.min(budget);
        op.remaining -= bytes;
        let first_wait_ns = if op.started {
            None
        } else {
            op.started = true;
            Some(now_ns.saturating_sub(op.enq_ns))
        };
        let done = if op.remaining == 0 {
            Some(self.queues[c].pop_front().unwrap().payload)
        } else {
            None
        };
        Some(self.charge(class, bytes, first_wait_ns, done))
    }

    /// Most `class` may serve in one segment: FIFO and strict-priority
    /// commit serve whole ops; DRR-governed classes serve at most their
    /// remaining deficit.
    fn budget(&self, class: TrafficClass) -> u64 {
        match self.policy {
            SchedPolicy::Fifo => u64::MAX,
            SchedPolicy::StrictCommit if class == TrafficClass::Commit => u64::MAX,
            _ => self.deficit[class.idx()],
        }
    }

    /// Account a segment of `bytes` served from `class`: its deficit and
    /// the class's counters.
    fn charge(
        &mut self,
        class: TrafficClass,
        bytes: u64,
        first_wait_ns: Option<u64>,
        done: Option<T>,
    ) -> Segment<T> {
        let c = class.idx();
        if self.budget(class) != u64::MAX {
            self.deficit[c] -= bytes;
        }
        if done.is_some() {
            self.stats[c].ops += 1;
        }
        self.stats[c].bytes += bytes;
        if let Some(w) = first_wait_ns {
            if w > self.stats[c].max_wait_ns {
                self.stats[c].max_wait_ns = w;
            }
        }
        Segment {
            class,
            bytes,
            first_wait_ns,
            done,
        }
    }

    /// The class the round-robin policies serve next, of those whose bit
    /// is set in `busy`: `Commit` first under strict priority, then DRR
    /// over the rest.
    fn rr_pick(&mut self, busy: u8) -> Option<TrafficClass> {
        match self.policy {
            SchedPolicy::StrictCommit if busy & 1 != 0 => Some(TrafficClass::Commit),
            SchedPolicy::StrictCommit => self.drr_pick(1, busy),
            _ => self.drr_pick(0, busy),
        }
    }

    /// Class whose head op arrived first (global FIFO order).
    fn fifo_head(&self) -> Option<TrafficClass> {
        TrafficClass::ALL
            .into_iter()
            .filter_map(|cl| self.queues[cl.idx()].front().map(|op| (op.seq, cl)))
            .min_by_key(|&(seq, _)| seq)
            .map(|(_, cl)| cl)
    }

    /// Advance the DRR cursor (over classes ≥ `lo`) to a class with both
    /// traffic (its bit set in `busy`) and deficit. Deficits top up only
    /// when the round-robin pointer *arrives* at a class, so a class that
    /// exhausts its quantum must let the pointer visit everyone else
    /// before being served again — the classic DRR no-starvation
    /// guarantee.
    fn drr_pick(&mut self, lo: usize, busy: u8) -> Option<TrafficClass> {
        if busy >> lo == 0 {
            return None;
        }
        if self.cursor < lo {
            self.cursor = lo;
        }
        // Two sweeps bound the search: one may find exhausted deficits,
        // the arrival top-ups during it guarantee the second succeeds.
        for _ in 0..(2 * CLASS_COUNT) {
            let c = self.cursor;
            if busy & 1 << c == 0 {
                // An idle class forfeits its credit (classic DRR: deficit
                // never accumulates while you have nothing to send).
                self.deficit[c] = 0;
                self.advance_and_top(lo);
                continue;
            }
            if self.deficit[c] > 0 {
                return Some(TrafficClass::ALL[c]);
            }
            self.advance_and_top(lo);
        }
        None
    }

    /// Move the pointer to the next class (wrapping to `lo`) and grant it
    /// a fresh quantum on arrival.
    fn advance_and_top(&mut self, lo: usize) {
        self.cursor += 1;
        if self.cursor >= CLASS_COUNT {
            self.cursor = lo;
        }
        self.deficit[self.cursor] =
            (self.deficit[self.cursor]).saturating_add(self.quantum[self.cursor] as u64);
    }
}

/// Token-bucket pacing for bulk movers: refills at `rate` bytes/s up to
/// `burst`; admission debits the full transfer (tokens may go negative,
/// bounding bursts at `burst + one transfer`) and a dry bucket answers
/// with the exact wait until it is serviceable again.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate_bytes_per_sec: u64,
    burst: u64,
    /// May go negative (debt) after admitting a transfer larger than the
    /// remaining tokens while non-negative.
    tokens: i128,
    /// Sub-token refill remainder in byte·ns (0 ≤ frac < 1e9). Without
    /// it, a caller polling faster than one token per poll would see
    /// every refill truncate to zero while `last_ns` still advanced —
    /// the bucket would never recover and the advertised waits would
    /// shrink asymptotically toward zero (a backoff livelock).
    frac: u128,
    last_ns: u64,
}

const NS_PER_SEC: u128 = 1_000_000_000;

impl TokenBucket {
    pub fn new(rate_bytes_per_sec: u64, burst: u64) -> Self {
        TokenBucket {
            rate_bytes_per_sec: rate_bytes_per_sec.max(1),
            burst,
            tokens: burst as i128,
            frac: 0,
            last_ns: 0,
        }
    }

    fn refill(&mut self, now_ns: u64) {
        if now_ns <= self.last_ns {
            return;
        }
        let dt = (now_ns - self.last_ns) as u128;
        self.last_ns = now_ns;
        let num = self.frac + dt * self.rate_bytes_per_sec as u128;
        self.tokens += (num / NS_PER_SEC) as i128;
        self.frac = num % NS_PER_SEC;
        if self.tokens >= self.burst as i128 {
            // Full bucket: surplus (including the remainder) spills.
            self.tokens = self.burst as i128;
            self.frac = 0;
        }
    }

    /// Admit `bytes` now, or say how long until the bucket is serviceable.
    pub fn try_take(&mut self, bytes: u64, now_ns: u64) -> Result<(), u64> {
        self.refill(now_ns);
        if self.tokens >= 0 {
            self.tokens -= bytes as i128;
            Ok(())
        } else {
            // Round up (net of the banked remainder) so waiting the
            // advertised time always clears the debt.
            let deficit_units = ((-self.tokens) as u128 * NS_PER_SEC).saturating_sub(self.frac);
            let wait = deficit_units.div_ceil(self.rate_bytes_per_sec as u128);
            Err((wait as u64).max(1))
        }
    }
}

// Process-wide per-class totals, accumulated by every Network in the
// process (sims run on worker threads during sweeps). Benches read these
// to emit fabric counters in their --json artifacts without threading a
// network handle out of every rig.
static G_OPS: [AtomicU64; CLASS_COUNT] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
static G_BYTES: [AtomicU64; CLASS_COUNT] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
static G_MAX_WAIT: [AtomicU64; CLASS_COUNT] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
static G_PEAK_DEPTH: [AtomicU64; CLASS_COUNT] =
    [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

pub(crate) fn global_record(class: TrafficClass, delta: &ClassStats) {
    let c = class.idx();
    G_OPS[c].fetch_add(delta.ops, Ordering::Relaxed);
    G_BYTES[c].fetch_add(delta.bytes, Ordering::Relaxed);
    G_MAX_WAIT[c].fetch_max(delta.max_wait_ns, Ordering::Relaxed);
    G_PEAK_DEPTH[c].fetch_max(delta.peak_depth, Ordering::Relaxed);
}

/// Process-wide per-class fabric totals since process start (or the last
/// [`reset_process_stats`]): what every bench emits under `fabric_*` keys.
pub fn process_stats() -> [ClassStats; CLASS_COUNT] {
    let mut out = [ClassStats::default(); CLASS_COUNT];
    for c in 0..CLASS_COUNT {
        out[c] = ClassStats {
            ops: G_OPS[c].load(Ordering::Relaxed),
            bytes: G_BYTES[c].load(Ordering::Relaxed),
            max_wait_ns: G_MAX_WAIT[c].load(Ordering::Relaxed),
            peak_depth: G_PEAK_DEPTH[c].load(Ordering::Relaxed),
        };
    }
    out
}

/// Zero the process-wide totals (benches call this between sweep arms
/// when they want per-arm fabric numbers).
pub fn reset_process_stats() {
    for c in 0..CLASS_COUNT {
        G_OPS[c].store(0, Ordering::Relaxed);
        G_BYTES[c].store(0, Ordering::Relaxed);
        G_MAX_WAIT[c].store(0, Ordering::Relaxed);
        G_PEAK_DEPTH[c].store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut PortScheduler<u64>, now: u64) -> Vec<(TrafficClass, u64, Option<u64>)> {
        let mut out = Vec::new();
        while let Some(seg) = s.next_segment(now) {
            out.push((seg.class, seg.bytes, seg.done));
        }
        out
    }

    #[test]
    fn fifo_serves_in_arrival_order_whole_ops() {
        let mut s = PortScheduler::new(SchedPolicy::Fifo, [64 << 10, 16 << 10, 8 << 10]);
        s.enqueue(TrafficClass::Bulk, 65536, 0, 1);
        s.enqueue(TrafficClass::Commit, 4096, 10, 2);
        s.enqueue(TrafficClass::Bulk, 65536, 20, 3);
        let segs = drain(&mut s, 100);
        assert_eq!(
            segs,
            vec![
                (TrafficClass::Bulk, 65536, Some(1)),
                (TrafficClass::Commit, 4096, Some(2)),
                (TrafficClass::Bulk, 65536, Some(3)),
            ]
        );
    }

    #[test]
    fn drr_segments_bulk_and_interleaves_commit() {
        let mut s = PortScheduler::new(SchedPolicy::Drr, [64 << 10, 16 << 10, 8 << 10]);
        s.enqueue(TrafficClass::Bulk, 65536, 0, 9);
        s.enqueue(TrafficClass::Commit, 4096, 0, 7);
        // A commit arriving against a queued 64K bulk op is served within
        // one bulk segment (8K), not after the whole 64K.
        let mut bulk_bytes_before_commit = 0;
        loop {
            let seg = s.next_segment(0).unwrap();
            match seg.class {
                TrafficClass::Commit => break,
                _ => bulk_bytes_before_commit += seg.bytes,
            }
        }
        assert!(
            bulk_bytes_before_commit <= 8 << 10,
            "commit waited behind {bulk_bytes_before_commit} bulk bytes"
        );
        // And the bulk op still completes with every byte accounted.
        let rest: u64 = std::iter::from_fn(|| s.next_segment(0))
            .map(|seg| seg.bytes)
            .sum();
        assert_eq!(bulk_bytes_before_commit + rest, 65536);
    }

    #[test]
    fn strict_commit_always_preempts_queued_bulk() {
        let mut s = PortScheduler::new(SchedPolicy::StrictCommit, [64 << 10, 16 << 10, 8 << 10]);
        s.enqueue(TrafficClass::Bulk, 65536, 0, 1);
        s.enqueue(TrafficClass::Commit, 4096, 0, 2);
        s.enqueue(TrafficClass::Commit, 4096, 0, 3);
        let seg = s.next_segment(0).unwrap();
        assert_eq!(seg.class, TrafficClass::Commit);
        let seg = s.next_segment(0).unwrap();
        assert_eq!(seg.class, TrafficClass::Commit);
        let seg = s.next_segment(0).unwrap();
        assert_eq!(seg.class, TrafficClass::Bulk);
    }

    #[test]
    fn wait_and_depth_stats_recorded() {
        let mut s = PortScheduler::new(SchedPolicy::Fifo, [64 << 10, 16 << 10, 8 << 10]);
        s.enqueue(TrafficClass::Commit, 100, 1_000, 1);
        s.enqueue(TrafficClass::Commit, 100, 1_000, 2);
        let seg = s.next_segment(5_000).unwrap();
        assert_eq!(seg.first_wait_ns, Some(4_000));
        let c = TrafficClass::Commit.idx();
        assert_eq!(s.stats[c].peak_depth, 2);
        assert_eq!(s.stats[c].max_wait_ns, 4_000);
        s.next_segment(9_000).unwrap();
        assert_eq!(s.stats[c].max_wait_ns, 8_000);
        assert_eq!(s.stats[c].ops, 2);
        assert_eq!(s.stats[c].bytes, 200);
    }

    #[test]
    fn token_bucket_paces_to_rate() {
        // 100 MB/s, 64K burst.
        let mut tb = TokenBucket::new(100_000_000, 65536);
        assert!(tb.try_take(65536, 0).is_ok());
        // Bucket now empty-ish; a second immediate window must wait.
        assert!(tb.try_take(65536, 1).is_ok()); // debt allowed once
        let err = tb.try_take(65536, 2).unwrap_err();
        assert!(err > 0);
        // After the advertised wait the bucket is serviceable again.
        assert!(tb.try_take(65536, 2 + err).is_ok());
    }

    #[test]
    fn token_bucket_sustained_rate_converges_to_share() {
        let mut tb = TokenBucket::new(50_000_000, 65536); // 50 MB/s
        let mut now = 0u64;
        let mut admitted = 0u64;
        // Offer far more than the rate for one simulated second.
        while now < 1_000_000_000 {
            match tb.try_take(65536, now) {
                Ok(()) => admitted += 65536,
                Err(wait) => now += wait,
            }
        }
        let rate = admitted as f64; // bytes in one second
        assert!(
            (40_000_000.0..60_000_000.0).contains(&rate),
            "admitted {rate} B/s against a 50 MB/s bucket"
        );
    }
}
