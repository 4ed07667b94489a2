//! The TMF's commit protocol as two pure machines: a commit's
//! [`Coordinator`], and a [`Participant`] on each other shard a
//! cross-shard commit touches (presumed-abort two-phase commit).
//!
//! 1. The coordinator flushes every involved data trail of its shard
//!    through the transaction's high LSN there — for the flush points the
//!    commit still carries: an insert whose append ack already proved its
//!    delta durable left none — and asks each participant to prepare its
//!    slice. A participant flushes its data trails and hardens a
//!    `Prepared` record (with nothing left to flush, it still does); that
//!    record durable is its yes vote.
//! 2. Once every flush and every vote is in, the decision: in one event
//!    the commit record goes to the master trail and the decision
//!    checkpoint to the backup (record first: it is the longer leg, and
//!    both share the TMF's transmit port). That record durable is the
//!    cluster-wide commit point.
//! 3. The commit is externalized once both legs are done — the record
//!    durable, the checkpoint acknowledged or released by a lost backup,
//!    in either order — exactly once. The decisions follow, re-driven
//!    until acknowledged; a participant logs the outcome locally and
//!    resolves its DP2s.
//!
//! Both roles harden their record one way ([`SubKind::Harden`]): *append;
//! flush only if the ack does not already cover it*, decided from the
//! ack's own `durable_upto` (`AppendDone::is_durable`), never from the
//! backend's name — the paper's "completion time of at least one – and
//! typically more than one – disk I/O... included in the response time of
//! every transaction" (§2), and its PM answer "the database log is
//! persistent immediately" (§4.2): a PM ack covers its record.
//!
//! A decision is only ever commit: aborts happen before any participant
//! prepares, and a participant that never hears its decision is resolved
//! by recovery from the coordinator shard's trail — commit iff the
//! `Commit` record is there, else presumed abort
//! (`recovery::redo_scan_sharded`).
//!
//! Neither machine sends, times, charges or counts anything: each input
//! pushes the [`Out`]s its host carries out, in order. The host
//! (`tmf::TmfProc`) owns the pair, the sends, the retry timers and the
//! stats; [`Subs`] is its table of sub-operations in flight.
//! `tests/proptests.rs::two_phase_commit_keeps_its_three_rules` drives
//! both machines through random interleavings against three rules.

use crate::types::{Lsn, TxnId};
use simcore::hash::FastMap;

/// A participant shard's slice of a commit: the (ADP, LSN) flush points
/// and DP2 names whose data that shard must harden before it votes.
pub type ShardWork = (Vec<(String, Lsn)>, Vec<String>);

/// A sub-operation: what the host sends, and re-sends until it is
/// answered (a takeover loses the old primary's buffered waiters;
/// duplicate records in a trail are harmless).
#[derive(Debug)]
pub enum SubKind {
    /// Flush data trail `adp` through `upto`.
    Flush { adp: String, upto: Lsn },
    /// Harden the owner's record on its master trail: append it (`flush:
    /// None`), or flush the trail through the end of an append whose ack
    /// did not cover it.
    Harden { flush: Option<Lsn> },
    /// Ask shard `peer`'s TMF to prepare its slice; its vote answers.
    Prepare { peer: u32, work: ShardWork },
    /// Tell shard `peer`'s TMF the transaction committed.
    Decision { peer: u32 },
}

/// An answer to a sub-operation.
#[derive(Clone, Copy, Debug)]
pub enum Answer {
    /// A trail is durable through the flush's point.
    Flushed,
    /// The record's append was acknowledged at `[.., end)`; `covers`: the
    /// ack's durable watermark already reaches `end`.
    Appended { covers: bool, end: Lsn },
    /// A participant voted yes.
    Voted,
    /// A participant applied the decision.
    DecisionAcked,
}

/// Whose sub-operation a token is: `txn`'s coordinator, under its commit
/// token, or (`commit: None`) the participant holding `txn` prepared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Owner {
    pub txn: TxnId,
    pub commit: Option<u64>,
}

impl Owner {
    pub fn coordinator(token: u64, txn: TxnId) -> Self {
        let commit = Some(token);
        Owner { txn, commit }
    }

    pub fn participant(txn: TxnId) -> Self {
        Owner { txn, commit: None }
    }
}

/// What a machine asks its host to do.
#[derive(Debug)]
pub enum Out {
    /// Start sub-operation `kind`: send it, and re-send it until answered.
    Sub(SubKind),
    /// Coordinator: send the decision checkpoint to the backup, parked on
    /// its ack (no backup: never asked).
    Checkpoint,
    /// Coordinator: tell the client the transaction committed. Its last
    /// output but the decisions and the resolution behind it: the host
    /// drops the coordinator here, so it externalizes once.
    Externalize,
    /// Participant: the `Prepared` record is durable — vote yes.
    Vote,
    /// Participant: append the decision's outcome record, fire and forget.
    Record { committed: bool },
    /// Tell `dp2`s the outcome, to release their locks.
    Resolve { dp2: Vec<String>, committed: bool },
}

/// The sub-operations in flight, by token. `T` is the host's retry
/// handle, replaced at each re-drive and handed back when the answer
/// retires the token.
pub struct Subs<T> {
    next: u64,
    live: FastMap<u64, (Owner, SubKind, T)>,
}

impl<T> Default for Subs<T> {
    fn default() -> Self {
        Subs {
            next: 0,
            live: FastMap::default(),
        }
    }
}

impl<T> Subs<T> {
    /// A fresh token. A fire-and-forget append takes one it never
    /// registers, so every request a process sends names its own token.
    pub fn token(&mut self) -> u64 {
        let token = self.next;
        self.next += 1;
        token
    }

    pub fn insert(&mut self, token: u64, owner: Owner, kind: SubKind, retry: T) {
        self.live.insert(token, (owner, kind, retry));
    }

    /// The unanswered sub-operation `token` names: what to re-drive.
    pub fn get(&self, token: u64) -> Option<(Owner, &SubKind)> {
        self.live.get(&token).map(|(owner, kind, _)| (*owner, kind))
    }

    /// `token` was re-driven under a new retry handle.
    pub fn rearm(&mut self, token: u64, retry: T) {
        if let Some(entry) = self.live.get_mut(&token) {
            entry.2 = retry;
        }
    }

    /// `answer` came back for `token`: retire it. A vote retires only a
    /// prepare — a promoted backup numbers its tokens afresh, so a vote
    /// meant for its dead primary may name another kind.
    pub fn answer(&mut self, token: u64, answer: Answer) -> Option<(Owner, SubKind, T)> {
        if let Answer::Voted = answer {
            if !matches!(self.live.get(&token), Some((_, SubKind::Prepare { .. }, _))) {
                return None;
            }
        }
        self.live.remove(&token)
    }
}

/// How far a role's record is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Record {
    /// Sub-operations are still owed before it.
    Owed,
    /// Its harden op is out.
    Hardening,
    Durable,
}

/// The part both roles share: the sub-operations owed before the record,
/// then the record.
struct Stage {
    owed: usize,
    record: Record,
    /// Without one (a degenerate node) there is no record to harden.
    master_trail: bool,
}

impl Stage {
    fn new(owed: usize, master_trail: bool) -> Self {
        Stage {
            owed,
            record: Record::Owed,
            master_trail,
        }
    }

    fn answer(&mut self, kind: &SubKind, answer: Answer, outs: &mut Vec<Out>) {
        match (kind, answer) {
            (SubKind::Flush { .. }, Answer::Flushed) | (SubKind::Prepare { .. }, Answer::Voted) => {
                self.owed = self.owed.saturating_sub(1);
                self.harden_if_due(outs);
            }
            // Append; flush only if the ack does not already cover it.
            (SubKind::Harden { flush: None }, Answer::Appended { covers: false, end }) => {
                outs.push(Out::Sub(SubKind::Harden { flush: Some(end) }));
            }
            (SubKind::Harden { flush: None }, Answer::Appended { covers: true, .. })
            | (SubKind::Harden { flush: Some(_) }, Answer::Flushed) => {
                self.record = Record::Durable;
            }
            _ => {}
        }
    }

    /// Once nothing is owed, harden the record — or, with no master
    /// trail, count it durable at once.
    fn harden_if_due(&mut self, outs: &mut Vec<Out>) {
        if self.owed > 0 || self.record != Record::Owed {
            return;
        }
        self.record = if self.master_trail {
            outs.push(Out::Sub(SubKind::Harden { flush: None }));
            Record::Hardening
        } else {
            Record::Durable
        };
    }
}

/// One commit, on its home TMF. Phase 1 owes the local data flushes and
/// one vote per participant shard; then the decision: the commit record
/// hardens while the decision checkpoint goes to the backup.
pub struct Coordinator {
    txn: TxnId,
    /// This shard's DP2s only; a participant resolves its own.
    involved_dp2: Vec<String>,
    /// Participant shards, ascending (none: the single-shard fast path).
    participants: Vec<u32>,
    stage: Stage,
    /// The decision checkpoint is at the backup, not yet acknowledged.
    awaiting_ckpt: bool,
}

impl Coordinator {
    /// Start a commit: flush `local_flush`, ask each `remote` shard to
    /// prepare its slice — and decide at once if nothing is owed.
    /// `backup`: the decision checkpoint has a backup to go to.
    pub fn new(
        txn: TxnId,
        local_flush: Vec<(String, Lsn)>,
        involved_dp2: Vec<String>,
        mut remote: FastMap<u32, ShardWork>,
        master_trail: bool,
        backup: bool,
        outs: &mut Vec<Out>,
    ) -> Self {
        let stage = Stage::new(local_flush.len() + remote.len(), master_trail);
        let flushes = local_flush.into_iter();
        outs.extend(flushes.map(|(adp, upto)| Out::Sub(SubKind::Flush { adp, upto })));
        let mut participants: Vec<u32> = remote.keys().copied().collect();
        participants.sort_unstable();
        for &peer in &participants {
            let work = remote.remove(&peer).unwrap_or_default();
            outs.push(Out::Sub(SubKind::Prepare { peer, work }));
        }
        let mut c = Coordinator {
            txn,
            involved_dp2,
            participants,
            stage,
            awaiting_ckpt: false,
        };
        c.stage.harden_if_due(outs);
        c.moved(Record::Owed, backup, outs);
        c
    }

    pub fn txn(&self) -> TxnId {
        self.txn
    }

    /// Whether the commit spans shards.
    pub fn cross_shard(&self) -> bool {
        !self.participants.is_empty()
    }

    /// `answer` came back for this commit's sub-operation `kind`.
    pub fn answered(&mut self, kind: &SubKind, answer: Answer, backup: bool, outs: &mut Vec<Out>) {
        let was = self.stage.record;
        self.stage.answer(kind, answer, outs);
        self.moved(was, backup, outs);
    }

    /// The decision checkpoint was acknowledged — or never will be: a lost
    /// backup released it. The record may still be on its way.
    pub fn ckpt_done(&mut self, outs: &mut Vec<Out>) {
        self.awaiting_ckpt = false;
        self.externalize_if_done(outs);
    }

    /// The record was `was`. Leaving `Owed` is the decision: its
    /// checkpoint goes beside the record, behind it (the longer leg goes
    /// first).
    fn moved(&mut self, was: Record, backup: bool, outs: &mut Vec<Out>) {
        if was == Record::Owed && self.stage.record != Record::Owed && backup {
            self.awaiting_ckpt = true;
            outs.push(Out::Checkpoint);
        }
        self.externalize_if_done(outs);
    }

    fn externalize_if_done(&mut self, outs: &mut Vec<Out>) {
        if self.awaiting_ckpt || self.stage.record != Record::Durable {
            return;
        }
        outs.push(Out::Externalize);
        let peers = self.participants.iter();
        outs.extend(peers.map(|&peer| Out::Sub(SubKind::Decision { peer })));
        outs.push(Out::Resolve {
            dp2: std::mem::take(&mut self.involved_dp2),
            committed: true,
        });
    }
}

/// One transaction this shard prepares for a coordinator elsewhere: its
/// data flushes, then its `Prepared` record, whose durability is the vote.
pub struct Participant {
    /// Where the vote goes: the coordinator's TMF and its prepare's token,
    /// refreshed by each re-driven prepare.
    pub coord: String,
    pub coord_token: u64,
    involved_dp2: Vec<String>,
    stage: Stage,
}

impl Participant {
    pub fn new(
        coord: String,
        coord_token: u64,
        flush_points: Vec<(String, Lsn)>,
        involved_dp2: Vec<String>,
        master_trail: bool,
        outs: &mut Vec<Out>,
    ) -> Self {
        let mut p = Participant {
            coord,
            coord_token,
            involved_dp2,
            stage: Stage::new(flush_points.len(), master_trail),
        };
        let flushes = flush_points.into_iter();
        outs.extend(flushes.map(|(adp, upto)| Out::Sub(SubKind::Flush { adp, upto })));
        p.stage.harden_if_due(outs);
        p.moved(Record::Owed, outs);
        p
    }

    /// The coordinator re-drove its prepare: whether to vote again now.
    pub fn again(&mut self, coord: String, coord_token: u64) -> bool {
        self.coord = coord;
        self.coord_token = coord_token;
        self.stage.record == Record::Durable
    }

    /// `answer` came back for this prepare's sub-operation `kind`.
    pub fn answered(&mut self, kind: &SubKind, answer: Answer, outs: &mut Vec<Out>) {
        let was = self.stage.record;
        self.stage.answer(kind, answer, outs);
        self.moved(was, outs);
    }

    /// The decision arrived: log it locally — recovery on this shard then
    /// needs no coordinator — and resolve the DP2s.
    pub fn decided(self, committed: bool, outs: &mut Vec<Out>) {
        outs.push(Out::Record { committed });
        outs.push(Out::Resolve {
            dp2: self.involved_dp2,
            committed,
        });
    }

    fn moved(&self, was: Record, outs: &mut Vec<Out>) {
        if was != Record::Durable && self.stage.record == Record::Durable {
            outs.push(Out::Vote);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsk::pair::{Died, PairCore, Role};

    /// What reaches a decided commit, as the TMF hears it.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ev {
        /// The record's append ack; `durable`: it covers the record.
        AppendAck { durable: bool },
        /// The flush behind a non-durable append ack came back.
        FlushAck,
        /// An ack of the decision checkpoint's seq (a second one is a
        /// duplicate; one after `BackupLost` is late).
        CkptAck,
        /// The backup died.
        BackupLost,
    }

    /// Every distinct order of `evs` in which a `FlushAck` follows the
    /// non-durable append ack it was sent for.
    fn orders(evs: &[Ev]) -> Vec<Vec<Ev>> {
        if evs.is_empty() {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for (i, &ev) in evs.iter().enumerate() {
            if evs[..i].contains(&ev) {
                continue;
            }
            let mut rest = evs.to_vec();
            rest.remove(i);
            if ev == Ev::FlushAck && rest.contains(&Ev::AppendAck { durable: false }) {
                continue;
            }
            for mut tail in orders(&rest) {
                tail.insert(0, ev);
                out.push(tail);
            }
        }
        out
    }

    /// How many times `outs` externalizes; drains it.
    fn externalized(outs: &mut Vec<Out>) -> u32 {
        let n = outs
            .iter()
            .filter(|o| matches!(o, Out::Externalize))
            .count();
        outs.clear();
        n as u32
    }

    /// A read-only commit — decided as it starts — with (or without) a
    /// master trail and a backup, then `events` fed through `PairCore`
    /// and the coordinator the way the TMF feeds them. Asserts at every
    /// step that the commit is externalized at most once, never before
    /// its record is durable, and as soon as both legs are done.
    fn run(master_trail: bool, backup: bool, events: &[Ev]) {
        const TOKEN: u64 = 7;
        let txn = TxnId::compose(0, 1);
        let mut core = PairCore::<u64>::new(Role::Primary);
        let mut outs = Vec::new();
        let mut c = Coordinator::new(
            txn,
            vec![],
            vec![],
            FastMap::default(),
            master_trail,
            backup,
            &mut outs,
        );
        let (mut durable, mut ckpt_done) = (!master_trail, !backup);
        assert_eq!(
            outs.iter().filter(|o| matches!(o, Out::Checkpoint)).count(),
            usize::from(backup)
        );
        let seq = backup.then(|| core.park(TOKEN));
        let mut done = externalized(&mut outs);
        let why = format!("master trail {master_trail}, backup {backup}, {events:?}");
        for &ev in events {
            match ev {
                Ev::AppendAck { durable: covers } => {
                    let kind = SubKind::Harden { flush: None };
                    c.answered(
                        &kind,
                        Answer::Appended {
                            covers,
                            end: Lsn(9),
                        },
                        backup,
                        &mut outs,
                    );
                    durable |= covers;
                    if !covers {
                        assert!(
                            matches!(
                                outs[..],
                                [Out::Sub(SubKind::Harden {
                                    flush: Some(Lsn(9))
                                })]
                            ),
                            "no flush behind a non-covering ack: {why}"
                        );
                        outs.clear();
                    }
                }
                Ev::FlushAck => {
                    let kind = SubKind::Harden {
                        flush: Some(Lsn(9)),
                    };
                    c.answered(&kind, Answer::Flushed, backup, &mut outs);
                    durable = true;
                }
                Ev::CkptAck => {
                    if let Some(t) = seq.and_then(|s| core.acked(s)) {
                        assert_eq!(t, TOKEN);
                        ckpt_done = true;
                        c.ckpt_done(&mut outs);
                    }
                }
                Ev::BackupLost => {
                    let Died::BackupLost(waiters) = core.died(false) else {
                        panic!("a primary's backup died: {why}");
                    };
                    ckpt_done = true;
                    for _ in waiters {
                        c.ckpt_done(&mut outs);
                    }
                }
            }
            let now = externalized(&mut outs);
            assert!(
                now == 0 || durable,
                "externalized before durable after {ev:?}: {why}"
            );
            done += now;
            assert!(done <= 1, "externalized twice: {why}");
            assert_eq!(done, u32::from(durable && ckpt_done), "after {ev:?}: {why}");
        }
        assert_eq!(done, 1, "never externalized: {why}");
    }

    #[test]
    fn a_decided_commit_externalizes_once_both_legs_are_done_in_any_order() {
        use Ev::*;
        let mut orders_run = 0;
        for master_trail in [false, true] {
            let records: &[&[Ev]] = if master_trail {
                &[
                    &[AppendAck { durable: true }],
                    &[AppendAck { durable: false }, FlushAck],
                ]
            } else {
                &[&[]]
            };
            for backup in [false, true] {
                // Every checkpoint outcome: acked, lost, both (either
                // order: a late ack), acked twice, and all three.
                let ckpts: &[&[Ev]] = &[
                    &[CkptAck],
                    &[BackupLost],
                    &[CkptAck, BackupLost],
                    &[CkptAck, CkptAck],
                    &[CkptAck, CkptAck, BackupLost],
                ];
                for record in records {
                    for ckpt in ckpts {
                        for order in orders(&[*record, *ckpt].concat()) {
                            run(master_trail, backup, &order);
                            orders_run += 1;
                        }
                    }
                }
                if !backup {
                    run(master_trail, backup, records[0]);
                }
            }
        }
        // Per backup setting: 8 orders of the checkpoint outcomes alone,
        // 25 with a durable append ack among them, 54 with an ack and the
        // flush behind it.
        assert_eq!(orders_run, 2 * (8 + 25 + 54));
    }
}
