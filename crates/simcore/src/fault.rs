//! Fault injection planning.
//!
//! Experiments declare faults up front — "kill CPU 2 at t=40 s", "drop 0.1%
//! of fabric packets", "take mirror half 1 down from t=10 s to t=20 s" —
//! and the plan is consulted by the layers that own the faulted resources.
//! Keeping the plan declarative keeps fault scenarios reproducible and
//! reviewable. A power loss is not a planned fault: the harness drops the
//! `Sim` and recovers from the `DurableStore` (see [`crate::durable`]).
//!
//! Device faults are *windows*, not just points: [`Fault::NpmuDown`] takes
//! an NPMU mirror half offline for `[from, to)` and the device returns at
//! `to` with whatever contents it held at `from` — stale relative to the
//! survivor, which is exactly the state an online resilver must repair.

use crate::time::SimTime;

/// One planned fault.
#[derive(Clone, Debug, PartialEq)]
pub enum Fault {
    /// Kill a named process (nsk resolves names to actors) at a time.
    KillProcess { name: String, at: SimTime },
    /// Fail a CPU (all processes on it die) at a time.
    KillCpu { cpu: u32, at: SimTime },
    /// Take a fabric (0 = X, 1 = Y) down for a window.
    FabricDown {
        fabric: u8,
        from: SimTime,
        to: SimTime,
    },
    /// Corrupt packets with the given probability for a window
    /// (ServerNet detects these via CRC and retransmits).
    PacketCorruption {
        rate: f64,
        from: SimTime,
        to: SimTime,
    },
    /// One half of a mirrored NPMU volume (0 = primary "a", 1 = mirror
    /// "b") is down for the window `[from, to)`. While down the device
    /// NACKs (or silently drops, per its config) inbound RDMA instead of
    /// acking; at `to` it revives with the stale contents it held at
    /// `from`.
    NpmuDown {
        volume_half: u8,
        from: SimTime,
        to: SimTime,
    },
    /// Pool-scoped variant of [`Fault::NpmuDown`]: one half of one *member*
    /// volume of a scale-out PM pool is down for `[from, to)`. Devices carry
    /// a `volume_id` and only the matching member is affected; the other
    /// members' mirrors stay healthy, which is exactly the failure
    /// independence a pool must preserve.
    PoolNpmuDown {
        volume: u32,
        half: u8,
        from: SimTime,
        to: SimTime,
    },
}

/// A declarative set of faults for one run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    pub fn none() -> Self {
        Self::default()
    }

    pub fn with(mut self, f: Fault) -> Self {
        self.faults.push(f);
        self
    }

    /// Process kills, sorted by time.
    pub fn process_kills(&self) -> Vec<(String, SimTime)> {
        let mut v: Vec<(String, SimTime)> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::KillProcess { name, at } => Some((name.clone(), *at)),
                _ => None,
            })
            .collect();
        v.sort_by_key(|(_, t)| *t);
        v
    }

    /// CPU kills, sorted by time.
    pub fn cpu_kills(&self) -> Vec<(u32, SimTime)> {
        let mut v: Vec<(u32, SimTime)> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::KillCpu { cpu, at } => Some((*cpu, *at)),
                _ => None,
            })
            .collect();
        v.sort_by_key(|(_, t)| *t);
        v
    }

    /// Packet corruption rate in effect at `t` (0.0 when none).
    pub fn corruption_rate_at(&self, t: SimTime) -> f64 {
        self.faults
            .iter()
            .filter_map(|f| match f {
                Fault::PacketCorruption { rate, from, to } if *from <= t && t < *to => Some(*rate),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Is the given fabric down at `t`?
    pub fn fabric_down_at(&self, fabric: u8, t: SimTime) -> bool {
        self.faults.iter().any(|f| match f {
            Fault::FabricDown {
                fabric: fb,
                from,
                to,
            } => *fb == fabric && *from <= t && t < *to,
            _ => false,
        })
    }

    /// Is half `half` of pool member `volume` down at `t`? This is the one
    /// query path for both down-window variants: a member-scoped
    /// [`Fault::PoolNpmuDown`] matches only its own `(volume, half)`, and a
    /// global [`Fault::NpmuDown`] is treated as covering *every* member's
    /// matching half — which preserves the original single-volume-plan
    /// semantics (a 1-member pool has only member 0).
    pub fn member_npmu_down_at(&self, volume: u32, half: u8, t: SimTime) -> bool {
        self.faults.iter().any(|f| {
            let (v, h, from, to) = match f {
                Fault::NpmuDown {
                    volume_half,
                    from,
                    to,
                } => (None, *volume_half, *from, *to),
                Fault::PoolNpmuDown {
                    volume,
                    half,
                    from,
                    to,
                } => (Some(*volume), *half, *from, *to),
                _ => return false,
            };
            h == half && v.is_none_or(|v| v == volume) && from <= t && t < to
        })
    }

    /// All down windows for one mirror half, sorted by start time.
    pub fn npmu_down_windows(&self, volume_half: u8) -> Vec<(SimTime, SimTime)> {
        let mut v: Vec<(SimTime, SimTime)> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::NpmuDown {
                    volume_half: h,
                    from,
                    to,
                } if *h == volume_half => Some((*from, *to)),
                _ => None,
            })
            .collect();
        v.sort();
        v
    }

    /// Revival instants — `(half, to)` per down window, sorted by time.
    /// Repair orchestrators (the PMM's probe loop) use these to know a
    /// resilver will eventually have a live device to copy onto.
    pub fn npmu_revivals(&self) -> Vec<(u8, SimTime)> {
        let mut v: Vec<(u8, SimTime)> = self
            .faults
            .iter()
            .filter_map(|f| match f {
                Fault::NpmuDown {
                    volume_half, to, ..
                } => Some((*volume_half, *to)),
                _ => None,
            })
            .collect();
        v.sort_by_key(|(_, t)| *t);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kills_sorted_by_time() {
        let plan = FaultPlan::none()
            .with(Fault::KillProcess {
                name: "b".into(),
                at: SimTime(9),
            })
            .with(Fault::KillProcess {
                name: "a".into(),
                at: SimTime(3),
            });
        let ks = plan.process_kills();
        assert_eq!(ks[0].0, "a");
        assert_eq!(ks[1].0, "b");
    }

    #[test]
    fn corruption_windows() {
        let plan = FaultPlan::none().with(Fault::PacketCorruption {
            rate: 0.01,
            from: SimTime(10),
            to: SimTime(20),
        });
        assert_eq!(plan.corruption_rate_at(SimTime(5)), 0.0);
        assert_eq!(plan.corruption_rate_at(SimTime(10)), 0.01);
        assert_eq!(plan.corruption_rate_at(SimTime(19)), 0.01);
        assert_eq!(plan.corruption_rate_at(SimTime(20)), 0.0);
    }

    #[test]
    fn fabric_windows() {
        let plan = FaultPlan::none().with(Fault::FabricDown {
            fabric: 0,
            from: SimTime(1),
            to: SimTime(4),
        });
        assert!(plan.fabric_down_at(0, SimTime(2)));
        assert!(!plan.fabric_down_at(1, SimTime(2)));
        assert!(!plan.fabric_down_at(0, SimTime(4)));
    }

    #[test]
    fn npmu_down_windows_are_half_scoped() {
        let plan = FaultPlan::none()
            .with(Fault::NpmuDown {
                volume_half: 1,
                from: SimTime(10),
                to: SimTime(20),
            })
            .with(Fault::NpmuDown {
                volume_half: 0,
                from: SimTime(30),
                to: SimTime(35),
            });
        // Window membership is half-open, per half; a global window covers
        // every pool member.
        for vol in [0, 3] {
            assert!(!plan.member_npmu_down_at(vol, 1, SimTime(9)));
            assert!(plan.member_npmu_down_at(vol, 1, SimTime(10)));
            assert!(plan.member_npmu_down_at(vol, 1, SimTime(19)));
            assert!(!plan.member_npmu_down_at(vol, 1, SimTime(20)));
            assert!(!plan.member_npmu_down_at(vol, 0, SimTime(15)));
            assert!(plan.member_npmu_down_at(vol, 0, SimTime(30)));
        }
        assert_eq!(plan.npmu_down_windows(1), vec![(SimTime(10), SimTime(20))]);
        assert_eq!(plan.npmu_down_windows(2), vec![]);
    }

    #[test]
    fn npmu_multiple_windows_sorted_and_revivals() {
        let plan = FaultPlan::none()
            .with(Fault::NpmuDown {
                volume_half: 0,
                from: SimTime(50),
                to: SimTime(60),
            })
            .with(Fault::NpmuDown {
                volume_half: 0,
                from: SimTime(5),
                to: SimTime(8),
            })
            .with(Fault::NpmuDown {
                volume_half: 1,
                from: SimTime(20),
                to: SimTime(25),
            });
        assert_eq!(
            plan.npmu_down_windows(0),
            vec![(SimTime(5), SimTime(8)), (SimTime(50), SimTime(60))]
        );
        // A device can go down, revive, and go down again.
        assert!(plan.member_npmu_down_at(0, 0, SimTime(6)));
        assert!(!plan.member_npmu_down_at(0, 0, SimTime(10)));
        assert!(plan.member_npmu_down_at(0, 0, SimTime(55)));
        assert_eq!(
            plan.npmu_revivals(),
            vec![(0, SimTime(8)), (1, SimTime(25)), (0, SimTime(60))]
        );
    }

    #[test]
    fn pool_npmu_windows_are_member_scoped() {
        let plan = FaultPlan::none().with(Fault::PoolNpmuDown {
            volume: 2,
            half: 1,
            from: SimTime(10),
            to: SimTime(20),
        });
        // Window membership is half-open, per (volume, half).
        assert!(!plan.member_npmu_down_at(2, 1, SimTime(9)));
        assert!(plan.member_npmu_down_at(2, 1, SimTime(10)));
        assert!(plan.member_npmu_down_at(2, 1, SimTime(19)));
        assert!(!plan.member_npmu_down_at(2, 1, SimTime(20)));
        // Other members and the other half of the same member are untouched.
        assert!(!plan.member_npmu_down_at(2, 0, SimTime(15)));
        assert!(!plan.member_npmu_down_at(0, 1, SimTime(15)));
        assert!(!plan.member_npmu_down_at(3, 1, SimTime(15)));
    }

    #[test]
    fn cpu_kills_extracted() {
        let plan = FaultPlan::none().with(Fault::KillCpu {
            cpu: 3,
            at: SimTime(7),
        });
        assert_eq!(plan.cpu_kills(), vec![(3, SimTime(7))]);
    }
}
