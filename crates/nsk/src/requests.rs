//! Re-drive, written once: a requester re-sends a request on a timer until
//! an answer comes back, as a takeover can lose either with a server's old
//! primary. [`Requests`] is the table of requests in flight, a pure machine
//! like [`crate::pair::PairCore`] (no clock, no network):
//!
//! * a token per request carries the incarnation that issued it (a pair's
//!   primary, or its promoted backup): an answer meant for a dead primary
//!   names no request of its successor;
//! * one [`Retry`] timer per request, armed at issue and re-armed at each
//!   re-send after a capped doubling [`Backoff`];
//! * the first answer retires the token and disarms its timer: a duplicate
//!   or late answer, and a timer message after it, find nothing.
//!
//! The host sends, and arms or disarms through the closures it passes, so
//! it keeps its own order of sends and timers.

use crate::pair::Role;
use simcore::hash::FastMap;
use simcore::{SimDuration, TimerId};

/// Capped doubling backoff: `base · 2^attempt`, never past `cap`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backoff {
    pub base: SimDuration,
    pub cap: SimDuration,
}

impl Backoff {
    pub const fn new(base: SimDuration, cap: SimDuration) -> Self {
        Backoff { base, cap }
    }

    /// The delay before re-send `attempt` (0: the timer armed at issue).
    pub fn delay(self, attempt: u32) -> SimDuration {
        let grown = self.base.0.saturating_mul(1u64 << attempt.min(32));
        SimDuration::from_nanos(grown.min(self.cap.0))
    }
}

/// The retry timer's message: `token`'s request is due for a re-send.
pub struct Retry {
    pub token: u64,
}

/// The requests in flight, by token; `T` is the host's timer handle.
pub struct Requests<R, T = TimerId> {
    next: u64,
    backoff: Backoff,
    /// What the host re-sends from, its re-sends so far, and its timer.
    live: FastMap<u64, (R, u32, T)>,
}

impl<R, T> Requests<R, T> {
    /// The table of `role`'s half of a pair. A pair has two incarnations
    /// (a backup issues only once promoted): the backup's tokens count
    /// from `1 << 48`, past any its primary issued.
    pub fn new(role: Role, backoff: Backoff) -> Self {
        let next = u64::from(role == Role::Backup) << 48;
        let live = FastMap::default();
        Requests {
            next,
            backoff,
            live,
        }
    }

    /// A fresh token. A fire-and-forget request takes one it never
    /// issues, so every request a process sends names its own token.
    pub fn token(&mut self) -> u64 {
        self.next += 1;
        self.next - 1
    }

    /// Register `req` under `token` and arm its first timer.
    pub fn issue(&mut self, token: u64, req: R, arm: impl FnOnce(SimDuration, Retry) -> T) {
        let timer = arm(self.backoff.delay(0), Retry { token });
        self.live.insert(token, (req, 0, timer));
    }

    /// The unanswered request `token` names.
    pub fn get(&self, token: u64) -> Option<&R> {
        self.live.get(&token).map(|(req, ..)| req)
    }

    /// Every request in flight, by token.
    pub fn live(&self) -> Vec<(u64, &R)> {
        let mut live: Vec<_> = self.live.iter().map(|(&t, (req, ..))| (t, req)).collect();
        live.sort_unstable_by_key(|&(token, _)| token);
        live
    }

    /// An answer names `token`: the first retires it, disarming its timer,
    /// and hands its request back; any other finds nothing.
    pub fn answer<D>(&mut self, token: u64, disarm: impl FnOnce(T) -> D) -> Option<R> {
        let (req, _, timer) = self.live.remove(&token)?;
        disarm(timer);
        Some(req)
    }

    /// `retry` fired, and the host re-sent its request, found still
    /// unanswered ([`Self::get`]): arm its next timer, an attempt further.
    pub fn rearm(&mut self, retry: Retry, arm: impl FnOnce(SimDuration, Retry) -> T) {
        if let Some((_, attempt, timer)) = self.live.get_mut(&retry.token) {
            *attempt += 1;
            *timer = arm(self.backoff.delay(*attempt), retry);
        }
    }
}
