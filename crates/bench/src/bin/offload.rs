//! T13: near-device compute offload — what each offload verb buys.
//!
//! Two comparisons, each against the host-mediated path with identical
//! workload, seed and topology (defaults keep every offload off, so the
//! base arm reproduces prior experiments bit-exactly):
//!
//! * **Device-local CRC scrub** (`offload_scrub`): resilver verification
//!   moves one batched command per `scrub_batch` chunks and 4-byte
//!   digests instead of one `rdma_crc_read` round trip per chunk per
//!   half — O(digests) on the wire, not O(round trips).
//! * **NPMU→NPMU resilver copy** (`offload_copy`): repair payload flows
//!   survivor→revived directly instead of survivor→host→revived. With a
//!   whole pool resilvering at once (one half of every member lost), the
//!   host-mediated path funnels every pair's payload through the PMM
//!   host's single NIC — the aggregate repair rate is pinned at one link
//!   (~113 MB/s) no matter how many members need repair. Device copies
//!   ride each pair's own link, so the aggregate scales with the pool.
//!
//! (A third verb, a device-side atomic log-append, measured parity with
//! the ADP's chained host append — T13a, 2.00 fabric ops per commit and
//! 81.9 µs p50 on both arms — and was deleted in PR 17; T10's
//! `persistflush` row is its "classic" arm.)
//!
//! Acceptance (asserted below): device scrub cuts verify fabric
//! bytes ≥ 10×; device copy lifts the resilver rate ≥ 1.5× over the
//! host-mediated ~113 MB/s; and the base arm uses zero offload verbs.

use npmu::{Npmu, NpmuConfig};
use nsk::machine::{CpuId, Machine, MachineConfig};
use nsk::Monitor;
use pm_bench::outage::{self, OutageWrites};
use pm_bench::{json, Table};
use pmm::{PmmConfig, PmmHandle};
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, Sim, SimDuration, SimTime};
use simnet::SharedNetwork;

/// Command legs are modelled as 64 wire bytes throughout `simnet`.
const CMD_BYTES: u64 = 64;
/// An `rdma_crc_read` reply carries one 8-byte digest.
const CRC_REPLY_BYTES: u64 = 8;
/// A scrub reply carries one 4-byte digest per chunk.
const SCRUB_DIGEST_BYTES: u64 = 4;

// ---------------------------------------------------------------------------
// Pool-wide resilver with device copy and device scrub toggled.
// ---------------------------------------------------------------------------

const MEMBERS: u32 = 4;
const STRIPE_UNIT: u64 = 64 << 10;

struct ResilverPoint {
    mttr_ms: f64,
    rate_mb_s: f64,
    /// Fabric payload bytes the repair copy moved (host path: read the
    /// survivor + write the revived half; device path: one NPMU→NPMU
    /// transfer).
    copy_payload_bytes: u64,
    /// Modelled wire bytes of the verification pass: command legs plus
    /// digest replies.
    verify_bytes: u64,
    crc_reads: u64,
    scrubs: u64,
    copies: u64,
}

fn run_resilver(region_len: u64, chunk: u32, copy: bool, scrub: bool) -> ResilverPoint {
    let mut store = DurableStore::new();
    let mut sim = Sim::with_seed(7);
    let net: SharedNetwork = simnet::Network::new(simnet::FabricConfig::default());
    let machine = Machine::new(
        MachineConfig {
            cpus: 3,
            ..MachineConfig::default()
        },
        net.clone(),
    );
    // Each member holds its stripe slice plus metadata and slack.
    let cap = region_len / MEMBERS as u64 + pmm::META_BYTES + (2 << 20);
    let volumes: Vec<_> = (0..MEMBERS)
        .map(|v| {
            let cfg = NpmuConfig {
                volume_id: v,
                ..NpmuConfig::hardware(cap)
            };
            let a = Npmu::install(
                &mut sim,
                &mut store,
                &net,
                Some(&machine),
                &format!("pm{v}-a"),
                cfg.clone(),
            );
            let b = Npmu::install(
                &mut sim,
                &mut store,
                &net,
                Some(&machine),
                &format!("pm{v}-b"),
                cfg,
            );
            (a, b)
        })
        .collect();
    let pmm: PmmHandle = pmm::install_pmm_pool(
        &mut sim,
        &machine,
        "$PMM",
        &volumes,
        CpuId(0),
        None,
        PmmConfig {
            probe_interval: SimDuration::from_millis(10),
            resilver_chunk: chunk,
            offload_copy: copy,
            offload_scrub: scrub,
            ..PmmConfig::default()
        },
    );
    // One half of EVERY member dies at 2 ms and revives, stale, at 10 ms
    // — the pool-wide outage (cabinet power, fabric-side failure) that
    // makes the repair an aggregate-bandwidth problem.
    Monitor::install(
        &mut sim,
        &machine,
        FaultPlan::none().with(Fault::NpmuDown {
            volume_half: 1,
            from: SimTime(2 * MILLIS),
            to: SimTime(10 * MILLIS),
        }),
    );
    // Inside the outage, a block into every stripe unit of a region
    // striped over the pool: every resilver chunk of every member
    // diverges, so the repair copies the whole region.
    let writes = OutageWrites {
        region: "payload",
        len: region_len,
        placement: pmm::PlacementHint::Striped { unit: STRIPE_UNIT },
        at: SimTime(4 * MILLIS),
        span: region_len,
        stride: STRIPE_UNIT,
    };
    outage::install(&mut sim, &machine, CpuId(2), "$PMM", writes);
    let ceiling = SimTime(300 * SECS);
    while pmm
        .vol_stats
        .iter()
        .any(|vs| vs.lock().resilvers_completed == 0)
    {
        let now = sim.now();
        assert!(now < ceiling, "pool resilver never completed");
        sim.run_until(SimTime(now.as_nanos() + SECS));
    }
    let ns = net.lock().stats;
    // Aggregate MTTR: first member to start repairing until the last one
    // finishes (they overlap; the window is the pool's exposure time).
    let started = pmm
        .vol_stats
        .iter()
        .map(|vs| vs.lock().resilver_started_ns)
        .min()
        .unwrap();
    let completed = pmm
        .vol_stats
        .iter()
        .map(|vs| vs.lock().resilver_completed_ns)
        .max()
        .unwrap();
    let dur_ns = completed.saturating_sub(started).max(1);
    let copied: u64 = pmm
        .vol_stats
        .iter()
        .map(|vs| vs.lock().resilver_bytes_copied)
        .sum();
    // Chunk digests the verify passes took, both halves counted (same
    // ranges in every arm).
    let digests: u64 = pmm
        .vol_stats
        .iter()
        .map(|vs| vs.lock().resilver_bytes_digested.div_ceil(chunk as u64))
        .sum();
    let verify_bytes = if scrub {
        // One batched command per `scrub_batch` contiguous chunks per
        // half, each replying 4 bytes per chunk.
        ns.rdma_scrubs * CMD_BYTES + digests * SCRUB_DIGEST_BYTES
    } else {
        // One `rdma_crc_read` round trip per chunk per half.
        ns.rdma_crc_reads * (CMD_BYTES + CRC_REPLY_BYTES)
    };
    let copy_payload_bytes = if copy {
        ns.rdma_copy_bytes
    } else {
        // Host-mediated: payload crosses the fabric twice (survivor →
        // host, host → revived). The outage writer's blocks and the
        // metadata epoch writes ride along but are noise at this scale.
        ns.rdma_read_bytes + ns.rdma_write_bytes
    };
    ResilverPoint {
        mttr_ms: dur_ns as f64 / MILLIS as f64,
        rate_mb_s: copied as f64 / (1 << 20) as f64 / (dur_ns as f64 / SECS as f64),
        copy_payload_bytes,
        verify_bytes,
        crc_reads: ns.rdma_crc_reads,
        scrubs: ns.rdma_scrubs,
        copies: ns.rdma_copies,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let (region_mb, chunk_kb) = if full { (64u64, 256u32) } else { (32, 256) };
    let mut metrics: Vec<(String, f64)> = Vec::new();

    let region = region_mb << 20;
    let chunk = chunk_kb << 10;
    let arms = [
        ("base", false, false),
        ("copy", true, false),
        ("scrub", false, true),
        ("both", true, true),
    ];
    let mut t = Table::new(&[
        "resilver_arm",
        "mttr_ms",
        "rate_MB_per_s",
        "copy_payload_MB",
        "verify_KB",
        "crc_reads",
        "scrubs",
        "copies",
    ]);
    let mut points = Vec::new();
    for &(key, c, s) in &arms {
        let p = run_resilver(region, chunk, c, s);
        t.row(&[
            key.to_string(),
            format!("{:.2}", p.mttr_ms),
            format!("{:.0}", p.rate_mb_s),
            format!("{:.1}", p.copy_payload_bytes as f64 / (1 << 20) as f64),
            format!("{:.1}", p.verify_bytes as f64 / 1024.0),
            p.crc_reads.to_string(),
            p.scrubs.to_string(),
            p.copies.to_string(),
        ]);
        metrics.push((format!("resilver_{key}_mttr_ms"), p.mttr_ms));
        metrics.push((format!("resilver_{key}_rate_mb_s"), p.rate_mb_s));
        metrics.push((
            format!("resilver_{key}_copy_payload_mb"),
            p.copy_payload_bytes as f64 / (1 << 20) as f64,
        ));
        metrics.push((
            format!("resilver_{key}_verify_wire_b"),
            p.verify_bytes as f64,
        ));
        points.push((key, p));
    }
    t.print("T13b/c near-device resilver: NPMU->NPMU copy and batched CRC scrub");
    println!(
        "host-mediated repair funnels all {MEMBERS} members' payload through \
         the PMM host's NIC (one link's worth of aggregate rate); device \
         copies ride each pair's own link and halve the wire payload, and \
         the batched scrub turns one digest round trip per chunk per half \
         into one command per {} chunks",
        PmmConfig::default().scrub_batch
    );

    let find = |k: &str| &points.iter().find(|(pk, _)| *pk == k).unwrap().1;
    let base = find("base");
    let copy_arm = find("copy");
    let scrub_arm = find("scrub");
    let both = find("both");
    assert_eq!(base.scrubs + base.copies, 0, "base arm used offload verbs");
    for p in [copy_arm, both] {
        assert!(
            p.rate_mb_s >= 1.5 * base.rate_mb_s,
            "device copy must lift the resilver rate >= 1.5x \
             (base {:.0} MB/s, offload {:.0} MB/s)",
            base.rate_mb_s,
            p.rate_mb_s
        );
    }
    for p in [scrub_arm, both] {
        assert!(
            p.verify_bytes * 10 <= base.verify_bytes,
            "device scrub must cut verify fabric bytes >= 10x \
             (base {} B, offload {} B)",
            base.verify_bytes,
            p.verify_bytes
        );
    }
    assert!(
        copy_arm.copy_payload_bytes * 2 <= base.copy_payload_bytes.saturating_add(1 << 20),
        "device copy should halve the repair payload on the fabric \
         (host {} B, device {} B)",
        base.copy_payload_bytes,
        copy_arm.copy_payload_bytes
    );

    if json::wants_json(&args) {
        let path = json::emit("offload", &metrics).expect("write json");
        println!("wrote {}", path.display());
    }
}
