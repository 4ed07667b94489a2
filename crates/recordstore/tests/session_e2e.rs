//! DbSession end-to-end against a live node: the application-facing API
//! drives real transactions through the full TMF/DP2/ADP stack.

use bytes::Bytes;
use nsk::machine::CpuId;
use recordstore::{DbEvent, DbSession, Schema};
use simcore::actor::Start;
use simcore::time::SECS;
use simcore::{Actor, Ctx, DurableStore, Msg, Shared, SimDuration, SimTime};
use simnet::NetDelivery;
use txnkit::scenario::{build_ods, OdsParams};

#[derive(Default)]
struct Outcome {
    committed: u64,
    found: u64,
    missing: u64,
    done: bool,
}

/// A session app: 5 txns × 4 inserts, then read everything back, then
/// read keys that were never inserted.
struct App {
    session: DbSession,
    #[allow(dead_code)]
    phase: u32,
    txn_idx: u64,
    out: Shared<Outcome>,
    reads_pending: u32,
}

struct Kick;

impl App {
    fn next_txn(&mut self, ctx: &mut Ctx<'_>) {
        if self.txn_idx >= 5 {
            self.start_reads(ctx);
            return;
        }
        self.session.begin(ctx);
    }

    fn start_reads(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = 1;
        self.reads_pending = 5 * 4 + 3;
        for t in 0..5u64 {
            for i in 0..4u64 {
                let key = t * 100 + i;
                self.session.read(ctx, (i % 2) as u32, key, key);
            }
        }
        // Keys never written.
        for k in [9_999u64, 8_888, 7_777] {
            self.session.read(ctx, 0, k, k);
        }
    }
}

impl Actor for App {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            ctx.send_self(SimDuration::from_millis(1200), Kick);
            return;
        }
        if msg.is::<Kick>() {
            self.next_txn(ctx);
            return;
        }
        if let Ok((_, d)) = msg.take::<NetDelivery>() {
            match self.session.on_delivery(d.payload) {
                Some(DbEvent::Begun { .. }) => {
                    for i in 0..4u64 {
                        let key = self.txn_idx * 100 + i;
                        self.session.insert(
                            ctx,
                            (i % 2) as u32,
                            key,
                            Bytes::from(key.to_le_bytes().to_vec()),
                            i,
                        );
                    }
                }
                Some(DbEvent::Inserted { remaining: 0, .. }) => {
                    self.session.commit(ctx);
                }
                Some(DbEvent::Inserted { .. }) => {}
                Some(DbEvent::Committed { .. }) => {
                    self.out.lock().committed += 1;
                    self.txn_idx += 1;
                    self.next_txn(ctx);
                }
                Some(DbEvent::Read { found, .. }) => {
                    {
                        let mut o = self.out.lock();
                        if found.is_some() {
                            o.found += 1;
                        } else {
                            o.missing += 1;
                        }
                    }
                    self.reads_pending -= 1;
                    if self.reads_pending == 0 {
                        self.out.lock().done = true;
                    }
                }
                Some(DbEvent::Deadlocked { .. }) => self.session.abort(ctx),
                Some(DbEvent::Aborted { .. }) => self.next_txn(ctx),
                None => {}
            }
        }
    }
}

#[test]
fn session_api_drives_full_stack() {
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::pm(606));
    let schema = Schema::for_ods(&node);
    let out = Shared::new(Outcome::default());
    let out2 = out.clone();
    let machine = node.machine.clone();
    let tmf = node.tmf.clone();
    nsk::machine::install_primary(
        &mut node.sim,
        &machine.clone(),
        "$app",
        CpuId(1),
        move |ep| {
            Box::new(App {
                session: DbSession::new(machine, schema, ep, CpuId(1), &tmf),
                phase: 0,
                txn_idx: 0,
                out: out2,
                reads_pending: 0,
            })
        },
    );
    node.sim.run_until(SimTime(120 * SECS));
    let o = out.lock();
    assert!(o.done, "app must finish");
    assert_eq!(o.committed, 5);
    assert_eq!(o.found, 20, "every committed record readable");
    assert_eq!(o.missing, 3, "phantom keys stay missing");
    assert_eq!(node.stats.lock().txns_committed, 5);
}
