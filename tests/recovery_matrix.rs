//! The recovery matrix (`matrix/mod.rs`): tier-1 cuts the whole product
//! at its healed end and through its repairs, and every window of a subset
//! holding every pair of axis values; `-- --ignored` every window of all.

mod matrix;

use matrix::*;

#[test]
fn every_cell_recovers_every_acked_commit() {
    run_matrix(&all_cells(), Cuts::Ends);
}

/// Sweep every window of half of `cells`, so both test threads share the
/// sweep; some cut must resolve an in-doubt 2PC transaction.
fn sweep_half(cells: Vec<Cell>, half: usize) {
    let half: Vec<Cell> = cells.into_iter().skip(half).step_by(2).collect();
    let sum = run_matrix(&half, Cuts::Window);
    assert!(sum.indoubt > 0, "no cut resolved an in-doubt 2PC");
}

/// The pairwise subset, checked to hold every pair of axis values.
fn pairwise_checked() -> Vec<Cell> {
    let cells = pairwise();
    for p in all_cells().into_iter().flat_map(pairs_of) {
        let held = cells.iter().any(|&c| pairs_of(c).contains(&p));
        assert!(held, "pair {p:?} not covered");
    }
    cells
}

#[test]
fn pairwise_cells_recover_every_acked_commit() {
    sweep_half(pairwise_checked(), 0);
}

#[test]
fn other_pairwise_cells_recover_every_acked_commit() {
    sweep_half(pairwise_checked(), 1);
}

/// `NicAck` acks while the bytes sit in the NPMU's volatile ingress
/// buffer, so some window cut loses an acked commit — the reason the
/// honest modes exist — and some cut taken for an ack alone already
/// shows it: the loss is there before any byte moves.
#[test]
fn nic_ack_loses_an_acked_commit_inside_its_window() {
    let o = run_cell([0, NIC_ACK, 0, 0], Cuts::Window).expect("the control runs");
    let (cuts, lost, at_ack) = (o.cuts, o.lost, o.lost_at_ack);
    println!("NicAck: {cuts} cuts lost {lost} acked commits, {at_ack} cuts at an ack alone");
    assert!(o.lost >= 1 && o.lost_at_ack >= 1);
    assert_eq!(o.disagreed, 0, "a replay gave another verdict");
}

#[test]
#[ignore = "the whole product's window sweep; ci.sh runs it in release"]
fn product_cells_recover_at_every_window_boundary() {
    sweep_half(all_cells(), 0);
}

#[test]
#[ignore = "the whole product's window sweep; ci.sh runs it in release"]
fn other_product_cells_recover_at_every_window_boundary() {
    sweep_half(all_cells(), 1);
}
