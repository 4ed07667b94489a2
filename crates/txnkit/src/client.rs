//! Embeddable transaction-client bookkeeping for driver processes.
//!
//! Drivers (the hot-stock benchmark, the examples) run the §1.1
//! transaction-program loop: begin → inserts → commit. [`TxnClient`]
//! tracks, per transaction, which ADPs its inserts reached and the highest
//! not-yet-durable LSN on each — the flush points the TMF must harden at
//! commit — plus the involved DP2s for post-commit lock release. Both are
//! kept as vectors sorted by name, so a commit hands them to the TMF as
//! they are.

use crate::types::*;
use bytes::Bytes;
use nsk::machine::{CpuId, SharedMachine};
use simcore::hash::FastMap;
use simcore::Ctx;
use simnet::EndpointId;

pub struct TxnClient {
    machine: SharedMachine,
    ep: EndpointId,
    cpu: CpuId,
    tmf: String,
    /// Per transaction, `(ADP, highest LSN)` sorted by ADP name.
    flush_points: FastMap<TxnId, Vec<(String, Lsn)>>,
    /// Per transaction, the involved DP2 names, sorted and distinct.
    involved: FastMap<TxnId, Vec<String>>,
}

impl TxnClient {
    pub fn new(machine: SharedMachine, ep: EndpointId, cpu: CpuId, tmf: impl Into<String>) -> Self {
        TxnClient {
            machine,
            ep,
            cpu,
            tmf: tmf.into(),
            flush_points: FastMap::default(),
            involved: FastMap::default(),
        }
    }

    /// Request a new transaction; [`TxnBegun`] arrives with `token`.
    pub fn begin(&mut self, ctx: &mut Ctx<'_>, token: u64) -> bool {
        nsk::proc::send_to_process(
            ctx,
            &self.machine,
            self.ep,
            self.cpu,
            &self.tmf,
            24,
            BeginTxn { token },
        )
    }

    /// Issue an insert to the DP2 named `dp2`; [`InsertDone`] arrives with
    /// `token`. `virtual_len` is the record's logical size (4096 in the
    /// hot-stock workload); `body` may be a compact descriptor.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        ctx: &mut Ctx<'_>,
        dp2: &str,
        txn: TxnId,
        partition: PartitionId,
        key: u64,
        body: Bytes,
        virtual_len: u32,
        token: u64,
    ) -> bool {
        let involved = self.involved.entry(txn).or_default();
        if let Err(at) = involved.binary_search_by(|d| d.as_str().cmp(dp2)) {
            involved.insert(at, dp2.to_string());
        }
        nsk::proc::send_to_process(
            ctx,
            &self.machine,
            self.ep,
            self.cpu,
            dp2,
            64 + virtual_len,
            InsertReq {
                txn,
                partition,
                key,
                body,
                virtual_len,
                token,
            },
        )
    }

    /// Record an insert completion so the commit knows its flush points.
    /// An insert whose audit delta was durable on its append ack leaves
    /// none: there is nothing for the TMF to flush. Returns false for
    /// deadlock/routing failures (caller aborts).
    pub fn note_insert_done(&mut self, done: &InsertDone) -> bool {
        match &done.result {
            InsertResult::Ok { .. } if done.durable => true,
            InsertResult::Ok { adp, lsn } => {
                let points = self.flush_points.entry(done.txn).or_default();
                match points.binary_search_by(|(a, _)| a.cmp(adp)) {
                    Ok(at) => points[at].1 = points[at].1.max(*lsn),
                    Err(at) => points.insert(at, (adp.clone(), *lsn)),
                }
                true
            }
            _ => false,
        }
    }

    /// Commit: sends the accumulated flush points to the TMF.
    /// [`TxnCommitted`] arrives when durable.
    pub fn commit(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) -> bool {
        let flush_points = self.flush_points.remove(&txn).unwrap_or_default();
        let involved_dp2 = self.involved.remove(&txn).unwrap_or_default();
        nsk::proc::send_to_process(
            ctx,
            &self.machine,
            self.ep,
            self.cpu,
            &self.tmf,
            64,
            CommitTxn {
                txn,
                flush_points,
                involved_dp2,
            },
        )
    }

    /// Abort a transaction.
    pub fn abort(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) -> bool {
        self.flush_points.remove(&txn);
        let involved_dp2 = self.involved.remove(&txn).unwrap_or_default();
        nsk::proc::send_to_process(
            ctx,
            &self.machine,
            self.ep,
            self.cpu,
            &self.tmf,
            32,
            AbortTxn { txn, involved_dp2 },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsk::machine::{Machine, MachineConfig};
    use simnet::{FabricConfig, Network};

    #[test]
    fn flush_points_track_max_lsn_per_adp() {
        let net = Network::new(FabricConfig::default());
        let machine = Machine::new(MachineConfig::default(), net);
        let mut c = TxnClient::new(machine, EndpointId(0), CpuId(0), "$TMF");
        let txn = TxnId(5);
        for (adp, lsn) in [("$ADP0", 100), ("$ADP0", 50), ("$ADP1", 10)] {
            assert!(c.note_insert_done(&InsertDone {
                txn,
                token: 0,
                result: InsertResult::Ok {
                    adp: adp.into(),
                    lsn: Lsn(lsn),
                },
                durable: false,
            }));
        }
        let points = c.flush_points.get(&txn).unwrap();
        assert_eq!(
            points[..],
            [
                ("$ADP0".to_string(), Lsn(100)),
                ("$ADP1".to_string(), Lsn(10))
            ]
        );
        assert!(!c.note_insert_done(&InsertDone {
            txn,
            token: 0,
            result: InsertResult::Deadlock,
            durable: false,
        }));
    }

    #[test]
    fn an_insert_durable_on_its_ack_leaves_no_flush_point() {
        let net = Network::new(FabricConfig::default());
        let machine = Machine::new(MachineConfig::default(), net);
        let mut c = TxnClient::new(machine, EndpointId(0), CpuId(0), "$TMF");
        let done = |adp: &str, lsn, durable| InsertDone {
            txn: TxnId(5),
            token: 0,
            result: InsertResult::Ok {
                adp: adp.into(),
                lsn: Lsn(lsn),
            },
            durable,
        };
        assert!(c.note_insert_done(&done("$ADP0", 100, true)));
        assert!(c.flush_points.is_empty());
        // Mixed backends: only the trail that still needs a flush is named.
        assert!(c.note_insert_done(&done("$ADP1", 40, false)));
        let points = &c.flush_points[&TxnId(5)];
        assert_eq!(points[..], [("$ADP1".to_string(), Lsn(40))]);
    }
}
