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

struct LockState {
    holders: FastMap<TxnId, LockMode>,
    waiters: VecDeque<(TxnId, LockMode)>,
}

/// Per-DP2 lock table.
#[derive(Default)]
pub struct LockManager {
    locks: FastMap<LockKey, LockState>,
    /// Keys held (or waited on) per txn, for release_all.
    by_txn: FastMap<TxnId, FastSet<LockKey>>,
}

impl LockManager {
    pub fn new() -> Self {
        Self::default()
    }

    fn compatible(holders: &FastMap<TxnId, LockMode>, txn: TxnId, mode: LockMode) -> bool {
        holders
            .iter()
            .all(|(h, m)| *h == txn || (*m == LockMode::Shared && mode == LockMode::Shared))
    }

    /// Who `txn` would wait for on `key` with `mode`.
    fn blockers(&self, key: LockKey, txn: TxnId, mode: LockMode) -> Vec<TxnId> {
        let Some(st) = self.locks.get(&key) else {
            return Vec::new();
        };
        st.holders
            .iter()
            .filter(|(h, m)| **h != txn && !(**m == LockMode::Shared && mode == LockMode::Shared))
            .map(|(h, _)| *h)
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
                if st.waiters.iter().any(|(w, _)| *w == t) {
                    for (mode_t, _) in st.waiters.iter().filter(|(w, _)| *w == t) {
                        let _ = mode_t;
                    }
                    let mode = st
                        .waiters
                        .iter()
                        .find(|(w, _)| *w == t)
                        .map(|(_, m)| *m)
                        .unwrap();
                    for b in self.blockers(*key, t, mode) {
                        stack.push(b);
                    }
                }
            }
        }
        false
    }

    /// Try to acquire; queue on conflict unless that would deadlock.
    pub fn acquire(&mut self, txn: TxnId, key: LockKey, mode: LockMode) -> Acquire {
        // Upgrade handling: a sole holder upgrading shared→exclusive.
        if let Some(st) = self.locks.get_mut(&key) {
            if let Some(held) = st.holders.get(&txn).copied() {
                if held == LockMode::Exclusive || mode == LockMode::Shared {
                    return Acquire::Granted;
                }
                if st.holders.len() == 1 {
                    st.holders.insert(txn, LockMode::Exclusive);
                    return Acquire::Granted;
                }
                // Upgrade with co-holders: wait (or deadlock).
            }
        }
        let st = self.locks.entry(key).or_insert_with(|| LockState {
            holders: FastMap::default(),
            waiters: VecDeque::new(),
        });
        if st.waiters.is_empty() && Self::compatible(&st.holders, txn, mode) {
            st.holders.insert(txn, mode);
            self.by_txn.entry(txn).or_default().insert(key);
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
        self.by_txn.entry(txn).or_default().insert(key);
        Acquire::Queued
    }

    /// Release everything `txn` holds or waits for; returns the waiters
    /// that become granted, as `(txn, key)` pairs in grant order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(TxnId, LockKey)> {
        let mut granted = Vec::new();
        let Some(keys) = self.by_txn.remove(&txn) else {
            return granted;
        };
        let mut keys: Vec<LockKey> = keys.into_iter().collect();
        keys.sort_unstable();
        for key in keys {
            let Some(st) = self.locks.get_mut(&key) else {
                continue;
            };
            st.holders.remove(&txn);
            st.waiters.retain(|(w, _)| *w != txn);
            // Promote waiters FIFO while compatible.
            while let Some(&(w, m)) = st.waiters.front() {
                if Self::compatible(&st.holders, w, m) {
                    st.waiters.pop_front();
                    st.holders.insert(w, m);
                    granted.push((w, key));
                } else {
                    break;
                }
            }
            if st.holders.is_empty() && st.waiters.is_empty() {
                self.locks.remove(&key);
            }
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
            holds = st.holders.contains_key(&txn);
            // The cancelled waiter may have been blocking promotion.
            while let Some(&(w, m)) = st.waiters.front() {
                if Self::compatible(&st.holders, w, m) {
                    st.waiters.pop_front();
                    st.holders.insert(w, m);
                    granted.push((w, key));
                } else {
                    break;
                }
            }
            if st.holders.is_empty() && st.waiters.is_empty() {
                self.locks.remove(&key);
            }
        }
        if !holds {
            if let Some(keys) = self.by_txn.get_mut(&txn) {
                keys.remove(&key);
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
            .map(|st| st.holders.contains_key(&txn))
            .unwrap_or(false)
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
