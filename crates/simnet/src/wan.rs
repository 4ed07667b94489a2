//! # WAN link — the long-haul hop between a primary site and its
//! disaster-recovery replica
//!
//! The system-area fabric ([`crate::network`]) models a single-chassis
//! ServerNet: microsecond latencies, dual rails, hardware acks. A
//! geo-replication link is nothing like that — it is one logical pipe
//! with *milliseconds* of one-way delay, a bandwidth far below the local
//! fabric's, and failure modes that take the whole pipe away at once
//! (fiber cut, site power loss, routing flap).
//!
//! So the WAN is modeled separately and much more simply: a shared
//! [`WanLink`] that actors on either site consult to price (or drop) a
//! transfer, then deliver with a plain `ctx.send` to the remote actor.
//! There is no endpoint registry and no RDMA semantics across the WAN —
//! log shipping is a message protocol, not remote memory, exactly
//! because a synchronous remote-write API at WAN latency would put
//! milliseconds on every commit (the honest-remote-persistence lesson).
//!
//! Fault injection is two-layered:
//! * **planned windows** (`down_windows`) — deterministic flaps from the
//!   scenario config, for loss/partition experiments;
//! * **manual severance** ([`WanLink::sever`]) — the disaster itself; it
//!   stays down until [`WanLink::restore`], independent of windows.

use simcore::{Shared, SimDuration, SimTime};

/// Static shape of the long-haul pipe.
#[derive(Clone, Debug)]
pub struct WanConfig {
    /// One-way propagation delay (speed-of-light plus router queues).
    /// ~1 ms per 100 km of fiber round trip; metro DR sits near 1–2 ms,
    /// cross-continent near 30–70 ms.
    pub one_way_delay: SimDuration,
    /// Usable bandwidth in bits/second; `0` means unconstrained.
    pub bandwidth_bps: u64,
    /// Planned outage windows `[from, to)` — the link drops everything
    /// offered inside one.
    pub down_windows: Vec<(SimTime, SimTime)>,
}

impl Default for WanConfig {
    fn default() -> Self {
        WanConfig {
            one_way_delay: SimDuration::from_millis(2),
            bandwidth_bps: 10_000_000_000, // a 10 Gb/s DR circuit
            down_windows: Vec::new(),
        }
    }
}

/// Traffic counters, readable after a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct WanStats {
    /// Transfers priced and delivered.
    pub transfers: u64,
    /// Payload bytes those transfers carried.
    pub bytes: u64,
    /// Transfers offered while the link was down (dropped whole).
    pub dropped: u64,
    pub dropped_bytes: u64,
}

/// One site-to-site link. Shared ([`SharedWanLink`]) between the shipper
/// side and the replica side, plus the drill controller that severs it.
pub struct WanLink {
    cfg: WanConfig,
    /// Disaster switch: severed until restored, regardless of windows.
    severed: bool,
    /// Serialization horizon: when the pipe frees up (ns). Transfers
    /// queue behind each other like on any single link.
    busy_until_ns: u64,
    pub stats: WanStats,
}

pub type SharedWanLink = Shared<WanLink>;

impl WanLink {
    pub fn shared(cfg: WanConfig) -> SharedWanLink {
        Shared::new(WanLink {
            cfg,
            severed: false,
            busy_until_ns: 0,
            stats: WanStats::default(),
        })
    }

    /// The disaster: take the link down until [`WanLink::restore`].
    pub fn sever(&mut self) {
        self.severed = true;
    }

    pub fn restore(&mut self) {
        self.severed = false;
    }

    /// Is the link down at `now` (severed, or inside a planned window)?
    pub fn down_at(&self, now: SimTime) -> bool {
        self.severed
            || self
                .cfg
                .down_windows
                .iter()
                .any(|&(from, to)| from <= now && now < to)
    }

    /// Price a `bytes`-byte transfer offered at `now`: the delay after
    /// which it arrives at the far site, or `None` if the link is down
    /// (WAN loss is whole-message loss — the sender's retry timer, not a
    /// partial delivery, is the recovery path).
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Option<SimDuration> {
        if self.down_at(now) {
            self.stats.dropped += 1;
            self.stats.dropped_bytes += bytes;
            return None;
        }
        let now_ns = now.as_nanos();
        // bytes * 8 bits / (bps) seconds, in integer nanoseconds;
        // bandwidth 0 means "unpriced" (propagation delay only).
        let wire_ns = bytes
            .saturating_mul(8_000_000_000)
            .checked_div(self.cfg.bandwidth_bps)
            .unwrap_or(0);
        let start = self.busy_until_ns.max(now_ns);
        self.busy_until_ns = start + wire_ns;
        self.stats.transfers += 1;
        self.stats.bytes += bytes;
        Some(SimDuration::from_nanos(
            (start - now_ns) + wire_ns + self.cfg.one_way_delay.as_nanos(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> SimTime {
        SimTime(n * 1_000_000)
    }

    #[test]
    fn propagation_plus_serialization() {
        // 1 ms one-way, 8 Gb/s → a 1 MB transfer serializes in 1 ms.
        let link = WanLink::shared(WanConfig {
            one_way_delay: SimDuration::from_millis(1),
            bandwidth_bps: 8_000_000_000,
            down_windows: vec![],
        });
        let mut l = link.lock();
        let d = l.transfer(ms(0), 1_000_000).unwrap();
        assert_eq!(d.as_nanos(), 2_000_000); // 1 ms wire + 1 ms flight
                                             // A second transfer offered at the same instant queues behind.
        let d2 = l.transfer(ms(0), 1_000_000).unwrap();
        assert_eq!(d2.as_nanos(), 3_000_000);
        assert_eq!(l.stats.transfers, 2);
        assert_eq!(l.stats.bytes, 2_000_000);
    }

    #[test]
    fn unconstrained_bandwidth_is_pure_delay() {
        let link = WanLink::shared(WanConfig {
            one_way_delay: SimDuration::from_millis(5),
            bandwidth_bps: 0,
            down_windows: vec![],
        });
        let d = link.lock().transfer(ms(7), u64::MAX / 16).unwrap();
        assert_eq!(d.as_nanos(), 5_000_000);
    }

    #[test]
    fn windows_and_severance_drop_whole_transfers() {
        let link = WanLink::shared(WanConfig {
            one_way_delay: SimDuration::from_millis(1),
            bandwidth_bps: 0,
            down_windows: vec![(ms(10), ms(20))],
        });
        let mut l = link.lock();
        assert!(l.transfer(ms(9), 100).is_some());
        assert!(l.transfer(ms(10), 100).is_none()); // window entry
        assert!(l.transfer(ms(19), 100).is_none());
        assert!(l.transfer(ms(20), 100).is_some()); // window exit
        l.sever();
        assert!(l.transfer(ms(30), 100).is_none());
        l.restore();
        assert!(l.transfer(ms(31), 100).is_some());
        assert_eq!(l.stats.dropped, 3);
        assert_eq!(l.stats.dropped_bytes, 300);
    }
}
