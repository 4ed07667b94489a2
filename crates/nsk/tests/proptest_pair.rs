//! Property test for the process-pair protocol (`nsk::pair::PairCore`),
//! driven the way a server and its shell drive it but with a scripted
//! backup: under any interleaving of parked and fire-and-forget
//! checkpoints, acks (crossed, duplicated, or for a seq never issued),
//! primary deaths and backup deaths, every parked waiter is released
//! exactly once — by its own ack or by the backup's death, never both —
//! no waiter outlives a backup death, a late ack after one releases
//! nothing, and only a backup hearing of its primary's death is promoted.

use nsk::pair::{Died, PairCore, Role};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One input to the core, its argument drawn from the generated `pick`.
#[derive(Clone, Copy, Debug)]
enum Op {
    Park,
    Fire,
    /// Ack the `pick`-th seq issued so far (any age: crossed, duplicate,
    /// or after a backup death), or one never issued.
    Ack,
    PrimaryDied,
    BackupDied,
}

fn op() -> impl Strategy<Value = (Op, u64)> {
    // Parks and acks weighted up, so waiters pile up between deaths.
    let kind = prop_oneof![
        Just(Op::Park),
        Just(Op::Park),
        Just(Op::Fire),
        Just(Op::Ack),
        Just(Op::Ack),
        Just(Op::Ack),
        Just(Op::PrimaryDied),
        Just(Op::BackupDied),
    ];
    (kind, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_waiter_is_released_exactly_once(
        starts_primary in any::<bool>(),
        ops in proptest::collection::vec(op(), 0..80),
    ) {
        let mut role = if starts_primary { Role::Primary } else { Role::Backup };
        let mut core: PairCore<u32> = PairCore::new(role);
        // The model: every seq issued, the waiter still parked on each,
        // and how many times each waiter has been released.
        let mut issued: Vec<u64> = Vec::new();
        let mut parked: BTreeMap<u64, u32> = BTreeMap::new();
        let mut released: Vec<u32> = Vec::new();
        let mut next_waiter = 0u32;

        for (op, pick) in ops {
            match op {
                // Only a primary checkpoints.
                Op::Park | Op::Fire if role == Role::Backup => {}
                Op::Park => {
                    let w = next_waiter;
                    next_waiter += 1;
                    released.push(0);
                    let seq = core.park(w);
                    prop_assert!(issued.last().is_none_or(|&s| seq > s), "seqs increase");
                    issued.push(seq);
                    parked.insert(seq, w);
                }
                Op::Fire => {
                    let seq = core.seq();
                    prop_assert!(issued.last().is_none_or(|&s| seq > s), "seqs increase");
                    issued.push(seq);
                }
                Op::Ack => {
                    let at = pick as usize % (issued.len() + 2);
                    let seq = issued
                        .get(at)
                        .copied()
                        .unwrap_or(issued.last().map_or(0, |s| s + 1) + at as u64);
                    let got = core.acked(seq);
                    prop_assert_eq!(got, parked.remove(&seq), "ack of seq {}", seq);
                    if let Some(w) = got {
                        released[w as usize] += 1;
                    }
                }
                Op::PrimaryDied | Op::BackupDied => {
                    let was_primary = matches!(op, Op::PrimaryDied);
                    match core.died(was_primary) {
                        Died::Promote => {
                            prop_assert!(role == Role::Backup && was_primary, "promoted a {role:?}");
                            role = Role::Primary;
                        }
                        Died::BackupLost(ws) => {
                            prop_assert!(role == Role::Primary && !was_primary);
                            let want: Vec<u32> = std::mem::take(&mut parked).into_values().collect();
                            prop_assert_eq!(&ws, &want, "every parked waiter, in seq order");
                            for w in ws {
                                released[w as usize] += 1;
                            }
                        }
                        Died::Ignore => {
                            prop_assert!(
                                (role, was_primary) != (Role::Backup, true)
                                    && (role, was_primary) != (Role::Primary, false),
                                "{role:?} ignored was_primary = {was_primary}"
                            );
                        }
                    }
                    prop_assert_eq!(core.role(), role);
                }
            }
            prop_assert!(released.iter().all(|&n| n <= 1), "a waiter released twice");
        }

        // A primary that loses its backup now gives up whatever is left
        // (a backup never parked anything): then every waiter ever parked
        // has been released exactly once, and no ack releases another.
        if let Died::BackupLost(ws) = core.died(false) {
            for w in ws {
                released[w as usize] += 1;
            }
        }
        prop_assert!(released.iter().all(|&n| n == 1), "{released:?}");
        for seq in issued {
            prop_assert_eq!(core.acked(seq), None, "a late ack released seq {}", seq);
        }
    }
}
