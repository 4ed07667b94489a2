//! Fine-grained persistence (§3.4): ODS control structures living
//! directly in persistent memory — a B+-tree index, an order queue and
//! transaction control blocks — updated in place, torn by a simulated
//! crash mid-update, and recovered intact.
//!
//! Run: `cargo run --release --example fine_grained`

use npmu::NvImage;
use pmem::NvMedium;
use pmstore::{PmBTree, PmQueue, TcbState, TcbTable, TornWriter};
use simcore::Shared;

fn main() {
    // One hardware NPMU image: the durable substrate.
    let device = Shared::new(NvImage::new(64 << 20));

    // Carve three windows, as a PMM would with three regions.
    let index_win = NvMedium::new(device.clone(), 0, 8 << 20);
    let queue_win = NvMedium::new(device.clone(), 8 << 20, 1 << 20);
    let tcb_win = NvMedium::new(device.clone(), 9 << 20, 1 << 20);

    // --- index: a persistent B+-tree updated at record grain ---
    let mut m = index_win;
    let mut index = PmBTree::format(&mut m, 0, 8 << 20);
    for trade in 0..5_000u64 {
        index.insert(&mut m, trade, trade * 100 + 7).unwrap();
    }
    println!(
        "index: {} trades inserted, structurally valid",
        index.len(&m).unwrap()
    );
    index.check(&m);

    // --- order queue: enqueued orders are durable immediately ---
    let mut qm = queue_win;
    let queue = PmQueue::format(&mut qm, 0, 256, 64);
    for i in 0..10u32 {
        let order = format!("BUY {:>4} HPQ @ 21.{:02}", 100 * (i + 1), i);
        assert!(queue.enqueue(&mut qm, order.as_bytes()));
    }
    println!(
        "queue: {} orders durable without a disk write",
        queue.len(&qm)
    );

    // --- TCBs: transaction state readable by recovery, no trail scan ---
    let mut tm = tcb_win;
    let tcbs = TcbTable::format(&mut tm, 0, 1024);
    for txn in 1..=20u64 {
        tcbs.put(
            &mut tm,
            pmstore::tcb::Tcb {
                txn,
                state: if txn % 5 == 0 {
                    TcbState::Committing
                } else {
                    TcbState::Committed
                },
                first_lsn: txn * 4096,
                last_lsn: txn * 4096 + 2048,
            },
        );
    }

    // --- crash mid-update: tear a B-tree insert, then recover ---
    println!("\ncrash: power fails 90 bytes into an index update...");
    let fresh = NvMedium::new(device.clone(), 0, 8 << 20);
    let mut torn = TornWriter::new(fresh);
    torn.crash_after(90);
    index.insert(&mut torn, 999_999, 42).unwrap();
    assert!(torn.crashed);

    // Reboot: recover every structure from the device image alone.
    let mut m2 = NvMedium::new(device.clone(), 0, 8 << 20);
    let recovered = PmBTree::recover(&mut m2, 0, 8 << 20).expect("intact image");
    recovered.check(&m2);
    let phantom = recovered.get(&m2, 999_999).unwrap();
    println!(
        "recovered index: {} trades, torn insert {}",
        recovered.len(&m2).unwrap(),
        match phantom {
            Some(v) => format!("fully applied (value {v})"),
            None => "cleanly absent".into(),
        }
    );

    let mut qm2 = NvMedium::new(device.clone(), 8 << 20, 1 << 20);
    let q2 = PmQueue::recover(&mut qm2, 0, 256, 64);
    println!("recovered queue: {} orders intact", q2.len(&qm2));
    let first = q2.dequeue(&mut qm2).unwrap();
    println!(
        "  next order to match: {:?}",
        String::from_utf8_lossy(&first)
    );

    let tm2 = NvMedium::new(device, 9 << 20, 1 << 20);
    let tcbs2 = TcbTable::open(0, 1024);
    let (unresolved, scan_from) = {
        // recovery_view wants the window medium

        tcbs2.recovery_view(&tm2)
    };
    println!(
        "recovered TCBs: {} unresolved transactions, trail tail scan starts at lsn {:?}",
        unresolved.len(),
        scan_from
    );
    println!(
        "\n§3.4: fine-grained PM state \"reduces uncertainty regarding the state of\n\
         the database, and eliminates costly heuristic searching of audit trail\n\
         information, leading to shorter MTTR\"."
    );
    let _ = tcbs;
}
