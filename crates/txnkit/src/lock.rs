//! The lock manager: §1.1's concurrency control.
//!
//! "The most common concurrency control operation is locking, whereby the
//! process corresponding to the transaction program acquires either a
//! shared or exclusive lock on the data it reads or writes."
//!
//! One instance lives inside each DP2 and covers that DP2's partitions
//! (NonStop partitions its lock space the same way). Grants are
//! FIFO-fair; deadlocks are caught eagerly with a wait-for-graph cycle
//! check at enqueue time, victimizing the requester that would close the
//! cycle — the same policy its TMF-facing caller turns into a transaction
//! abort.
//!
//! A key almost always has one holder, so holders are a short vector, not
//! a hash table per lock; a transaction's keys are a short vector too. A
//! freed key's state is kept, emptied, for the next key instead of being
//! dropped.

use crate::types::TxnId;
use simcore::hash::{FastMap, FastSet};
use std::collections::VecDeque;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    Shared,
    Exclusive,
}

/// A lockable resource: (partition-local) record key.
pub type LockKey = u64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acquire {
    /// Lock granted immediately.
    Granted,
    /// Caller must wait; it will appear in a later `release` grant list.
    Queued,
    /// Granting would deadlock: the requester must abort.
    Deadlock,
}

#[derive(Default)]
struct LockState {
    /// Distinct holders, in grant order.
    holders: Vec<(TxnId, LockMode)>,
    waiters: VecDeque<(TxnId, LockMode)>,
}

impl LockState {
    fn held_by(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(h, _)| *h == txn)
            .map(|&(_, m)| m)
    }

    /// Grant `mode` to `txn`, upgrading it in place if it already holds.
    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        match self.holders.iter_mut().find(|(h, _)| *h == txn) {
            Some(held) => held.1 = mode,
            None => self.holders.push((txn, mode)),
        }
    }

    /// Promote waiters FIFO while compatible, appending them to `granted`.
    fn promote(&mut self, key: LockKey, granted: &mut Vec<(TxnId, LockKey)>) {
        while let Some(&(w, m)) = self.waiters.front() {
            if !LockManager::compatible(&self.holders, w, m) {
                break;
            }
            self.waiters.pop_front();
            self.grant(w, m);
            granted.push((w, key));
        }
    }
}

/// Per-DP2 lock table.
#[derive(Default)]
pub struct LockManager {
    locks: FastMap<LockKey, LockState>,
    /// Keys held (or waited on) per txn, distinct, for release_all.
    by_txn: FastMap<TxnId, Vec<LockKey>>,
    /// Freed keys' states, emptied, for the next keys.
    spare: Vec<LockState>,
}

impl LockManager {
    pub fn new() -> Self {
        Self::default()
    }

    fn compatible(holders: &[(TxnId, LockMode)], txn: TxnId, mode: LockMode) -> bool {
        holders
            .iter()
            .all(|(h, m)| *h == txn || (*m == LockMode::Shared && mode == LockMode::Shared))
    }

    /// Note that `txn` holds or waits for `key`.
    fn note_key(&mut self, txn: TxnId, key: LockKey) {
        let keys = self.by_txn.entry(txn).or_default();
        if !keys.contains(&key) {
            keys.push(key);
        }
    }

    /// Drop `key`'s state if nobody holds or waits for it any more.
    fn free_if_idle(&mut self, key: LockKey) {
        let idle = self
            .locks
            .get(&key)
            .is_some_and(|st| st.holders.is_empty() && st.waiters.is_empty());
        if idle {
            self.spare.extend(self.locks.remove(&key));
        }
    }

    /// Who `txn` would wait for on `key` with `mode`.
    fn blockers(&self, key: LockKey, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        let Some(st) = self.locks.get(&key) else {
            return Vec::new();
        };
        st.holders
            .iter()
            .filter(|&&(h, m)| h != txn && !(m == LockMode::Shared && mode == LockMode::Shared))
            .map(|&(h, _)| h)
            .collect()
    }

    /// Wait-for reachability: can `from` reach `target` through waits?
    fn waits_for(&self, from: TxnId, target: TxnId) -> bool {
        let mut stack = vec![from];
        let mut seen = FastSet::default();
        while let Some(t) = stack.pop() {
            if t == target {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            // Keys t is waiting on → their holders.
            for (key, st) in &self.locks {
                if let Some(&(_, mode)) = st.waiters.iter().find(|(w, _)| *w == t) {
                    stack.extend(self.blockers(*key, t, mode));
                }
            }
        }
        false
    }

    /// Try to acquire; queue on conflict unless that would deadlock.
    pub fn acquire(&mut self, txn: TxnId, key: LockKey, mode: LockMode) -> Acquire {
        // Upgrade handling: a sole holder upgrading shared→exclusive.
        if let Some(st) = self.locks.get_mut(&key) {
            if let Some(held) = st.held_by(txn) {
                if held == LockMode::Exclusive || mode == LockMode::Shared {
                    return Acquire::Granted;
                }
                if st.holders.len() == 1 {
                    st.grant(txn, LockMode::Exclusive);
                    return Acquire::Granted;
                }
                // Upgrade with co-holders: wait (or deadlock).
            }
        }
        let spare = &mut self.spare;
        let st = self
            .locks
            .entry(key)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        if st.waiters.is_empty() && Self::compatible(&st.holders, txn, mode) {
            st.grant(txn, mode);
            self.note_key(txn, key);
            return Acquire::Granted;
        }
        // Would any current blocker (transitively) wait on us? Then this
        // enqueue closes a cycle.
        let blockers = self.blockers(key, txn, mode);
        for b in &blockers {
            if self.waits_for(*b, txn) {
                return Acquire::Deadlock;
            }
        }
        let st = self.locks.get_mut(&key).unwrap();
        st.waiters.push_back((txn, mode));
        self.note_key(txn, key);
        Acquire::Queued
    }

    /// Release everything `txn` holds or waits for; returns the waiters
    /// that become granted, as `(txn, key)` pairs in grant order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, LockKey)> {
        let mut granted = Vec::new();
        let Some(mut keys) = self.by_txn.remove(&txn) else {
            return granted;
        };
        keys.sort_unstable();
        for key in keys {
            let Some(st) = self.locks.get_mut(&key) else {
                continue;
            };
            st.holders.retain(|(h, _)| *h != txn);
            st.waiters.retain(|(w, _)| *w != txn);
            st.promote(key, &mut granted);
            self.free_if_idle(key);
        }
        granted
    }

    /// Cancel `txn`'s wait on `key` (wait-timeout victimization — the
    /// backstop for distributed deadlocks the per-DP2 wait-for graph
    /// cannot see). Holders are untouched; any now-unblocked FIFO head
    /// waiters promote, returned like `release_all`'s grant list. No-op
    /// if `txn` isn't waiting on `key`.
    pub fn cancel_wait(&mut self, txn: TxnId, key: LockKey) -> Vec<(TxnId, LockKey)> {
        let mut granted = Vec::new();
        let holds;
        {
            let Some(st) = self.locks.get_mut(&key) else {
                return granted;
            };
            if !st.waiters.iter().any(|(w, _)| *w == txn) {
                return granted;
            }
            st.waiters.retain(|(w, _)| *w != txn);
            holds = st.held_by(txn).is_some();
            // The cancelled waiter may have been blocking promotion.
            st.promote(key, &mut granted);
            self.free_if_idle(key);
        }
        if !holds {
            if let Some(keys) = self.by_txn.get_mut(&txn) {
                keys.retain(|&k| k != key);
                if keys.is_empty() {
                    self.by_txn.remove(&txn);
                }
            }
        }
        granted
    }

    /// Does `txn` currently hold `key`?
    pub fn holds(&self, txn: TxnId, key: LockKey) -> bool {
        self.locks
            .get(&key)
            .is_some_and(|st| st.held_by(txn).is_some())
    }

    /// Number of keys with any state (size of the lock table).
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const K: LockKey = 42;

    #[test]
    fn exclusive_excludes() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(TxnId(1), K, LockMode::Exclusive),
            Acquire::Granted
        );
        assert_eq!(
            lm.acquire(TxnId(2), K, LockMode::Exclusive),
            Acquire::Queued
        );
        assert_eq!(lm.acquire(TxnId(3), K, LockMode::Shared), Acquire::Queued);
        let granted = lm.release_all(TxnId(1));
        assert_eq!(granted, vec![(TxnId(2), K)]);
        assert!(lm.holds(TxnId(2), K));
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(TxnId(1), K, LockMode::Shared), Acquire::Granted);
        assert_eq!(lm.acquire(TxnId(2), K, LockMode::Shared), Acquire::Granted);
        assert_eq!(
            lm.acquire(TxnId(3), K, LockMode::Exclusive),
            Acquire::Queued
        );
        // Releasing one sharer isn't enough.
        assert!(lm.release_all(TxnId(1)).is_empty());
        // Releasing the second grants the exclusive waiter.
        assert_eq!(lm.release_all(TxnId(2)), vec![(TxnId(3), K)]);
    }

    #[test]
    fn reentrant_and_upgrade() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(TxnId(1), K, LockMode::Shared), Acquire::Granted);
        assert_eq!(lm.acquire(TxnId(1), K, LockMode::Shared), Acquire::Granted);
        // Sole-holder upgrade succeeds in place.
        assert_eq!(
            lm.acquire(TxnId(1), K, LockMode::Exclusive),
            Acquire::Granted
        );
        assert_eq!(lm.acquire(TxnId(2), K, LockMode::Shared), Acquire::Queued);
        // Exclusive holder re-asking for shared is a no-op grant.
        assert_eq!(lm.acquire(TxnId(1), K, LockMode::Shared), Acquire::Granted);
    }

    #[test]
    fn two_txn_deadlock_detected() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(TxnId(1), 1, LockMode::Exclusive),
            Acquire::Granted
        );
        assert_eq!(
            lm.acquire(TxnId(2), 2, LockMode::Exclusive),
            Acquire::Granted
        );
        assert_eq!(
            lm.acquire(TxnId(1), 2, LockMode::Exclusive),
            Acquire::Queued
        );
        // txn2 → key1 would close the cycle: must be refused.
        assert_eq!(
            lm.acquire(TxnId(2), 1, LockMode::Exclusive),
            Acquire::Deadlock
        );
        // Victim aborts; its release unblocks txn1.
        let granted = lm.release_all(TxnId(2));
        assert_eq!(granted, vec![(TxnId(1), 2)]);
    }

    #[test]
    fn three_txn_cycle_detected() {
        let mut lm = LockManager::new();
        for t in 1..=3u64 {
            assert_eq!(
                lm.acquire(TxnId(t), t, LockMode::Exclusive),
                Acquire::Granted
            );
        }
        assert_eq!(
            lm.acquire(TxnId(1), 2, LockMode::Exclusive),
            Acquire::Queued
        );
        assert_eq!(
            lm.acquire(TxnId(2), 3, LockMode::Exclusive),
            Acquire::Queued
        );
        assert_eq!(
            lm.acquire(TxnId(3), 1, LockMode::Exclusive),
            Acquire::Deadlock
        );
    }

    #[test]
    fn fifo_fairness_no_starvation() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(TxnId(1), K, LockMode::Exclusive),
            Acquire::Granted
        );
        assert_eq!(lm.acquire(TxnId(2), K, LockMode::Shared), Acquire::Queued);
        assert_eq!(lm.acquire(TxnId(3), K, LockMode::Shared), Acquire::Queued);
        let granted = lm.release_all(TxnId(1));
        // Both shared waiters promote together, in FIFO order.
        assert_eq!(granted, vec![(TxnId(2), K), (TxnId(3), K)]);
    }

    #[test]
    fn shared_waiter_behind_exclusive_waits() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(TxnId(1), K, LockMode::Shared), Acquire::Granted);
        assert_eq!(
            lm.acquire(TxnId(2), K, LockMode::Exclusive),
            Acquire::Queued
        );
        // A shared request behind a queued exclusive must queue (fairness).
        assert_eq!(lm.acquire(TxnId(3), K, LockMode::Shared), Acquire::Queued);
        let g = lm.release_all(TxnId(1));
        assert_eq!(g, vec![(TxnId(2), K)]);
        let g = lm.release_all(TxnId(2));
        assert_eq!(g, vec![(TxnId(3), K)]);
        lm.release_all(TxnId(3));
        assert!(lm.is_empty());
    }

    #[test]
    fn cancel_wait_victimizes_and_promotes() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(TxnId(1), K, LockMode::Shared), Acquire::Granted);
        assert_eq!(
            lm.acquire(TxnId(2), K, LockMode::Exclusive),
            Acquire::Queued
        );
        assert_eq!(lm.acquire(TxnId(3), K, LockMode::Shared), Acquire::Queued);
        // Victimizing the exclusive waiter unblocks the shared one behind.
        assert_eq!(lm.cancel_wait(TxnId(2), K), vec![(TxnId(3), K)]);
        assert!(lm.holds(TxnId(3), K));
        assert!(!lm.holds(TxnId(2), K));
        // Cancelling a non-waiter is a no-op.
        assert!(lm.cancel_wait(TxnId(2), K).is_empty());
        assert!(lm.cancel_wait(TxnId(1), K).is_empty());
        lm.release_all(TxnId(1));
        lm.release_all(TxnId(3));
        assert!(lm.is_empty());
    }

    #[test]
    fn release_unknown_txn_is_noop() {
        let mut lm = LockManager::new();
        assert!(lm.release_all(TxnId(99)).is_empty());
    }

    #[test]
    fn table_shrinks_when_keys_free() {
        let mut lm = LockManager::new();
        lm.acquire(TxnId(1), 1, LockMode::Exclusive);
        lm.acquire(TxnId(1), 2, LockMode::Exclusive);
        assert_eq!(lm.len(), 2);
        lm.release_all(TxnId(1));
        assert_eq!(lm.len(), 0);
    }
}
