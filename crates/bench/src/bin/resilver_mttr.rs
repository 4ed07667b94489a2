//! Resilver MTTR — time to restore mirror redundancy vs allocated bytes
//! and vs diverged bytes (the repair-side companion to T3's
//! process-recovery MTTR).
//!
//! One mirror half dies briefly while a region is live and revives stale.
//! The PMM has both halves digest every allocated chunk and copies back
//! only the chunks that differ, so the repair window has two terms: a
//! scan of what is allocated, at the devices' digest rate, and a copy of
//! what diverged, at the link's. An outage writer dirties a chosen share
//! of the region's chunks inside the outage; the table sweeps region
//! size × that share, and the copy chunk size at a fixed share.
//!
//! A second row group loses one half of *every* member of a 4-member
//! pool at once, with every chunk of a striped region dirtied: each
//! survivor pushes its chunks straight to its own revived half
//! (`rdma_copy`, NPMU→NPMU), so the pairs repair side by side on their
//! own links and the aggregate rate scales with the pool instead of
//! being pinned at the one link of the PMM's host; and the verify ships
//! 8 bytes per chunk per look per half, whatever the region's size.

use npmu::{Npmu, NpmuConfig};
use nsk::machine::{CpuId, Machine, MachineConfig};
use nsk::Monitor;
use pm_bench::outage::{self, OutageWrites};
use pm_bench::Table;
use pmm::{install_pmm_pool, PmmConfig, PmmHandle};
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, Sim, SimDuration, SimTime};
use simnet::{FabricConfig, Network, SharedNetwork, TrafficClass};

/// Command legs are modelled as 64 wire bytes throughout `simnet`.
const CMD_BYTES: u64 = 64;
/// A scrub reply carries one 8-byte digest per chunk.
const DIGEST_BYTES: u64 = 8;

/// A pool of `members` mirrored pairs whose halves "b" all die at 2 ms
/// and revive, stale, at 10 ms — with one member, the single-pair outage;
/// with several, the pool-wide one (cabinet power, a fabric-side failure)
/// that makes the repair an aggregate-bandwidth problem — and an outage
/// writer that diverges what `writes` says inside it.
fn build(members: u32, chunk: u32, writes: OutageWrites) -> (Sim, PmmHandle, SharedNetwork) {
    let mut store = DurableStore::new();
    let mut sim = Sim::with_seed(7);
    let net = Network::new(FabricConfig::default());
    let machine = Machine::new(
        MachineConfig {
            cpus: 3,
            ..MachineConfig::default()
        },
        net.clone(),
    );
    // Each member holds its share of the region plus metadata and slack.
    let cap = writes.len / members as u64 + pmm::META_BYTES + (2 << 20);
    let volumes: Vec<_> = (0..members)
        .map(|v| {
            let cfg = NpmuConfig::hardware(cap).with_volume(v);
            let mut half = |h: &str| {
                let name = format!("pm{v}-{h}");
                Npmu::install(
                    &mut sim,
                    &mut store,
                    &net,
                    Some(&machine),
                    &name,
                    cfg.clone(),
                )
            };
            (half("a"), half("b"))
        })
        .collect();
    let pmm = install_pmm_pool(
        &mut sim,
        &machine,
        "$PMM",
        &volumes,
        CpuId(0),
        None,
        PmmConfig {
            probe_interval: SimDuration::from_millis(10),
            resilver_chunk: chunk,
            ..PmmConfig::default()
        },
    );
    Monitor::install(
        &mut sim,
        &machine,
        FaultPlan::none().with(Fault::NpmuDown {
            volume_half: 1,
            from: SimTime(2 * MILLIS),
            to: SimTime(10 * MILLIS),
        }),
    );
    outage::install(&mut sim, &machine, CpuId(2), "$PMM", writes);
    (sim, pmm, net)
}

/// Run until every member has repaired. Generous ceiling; the run idles
/// out long before it.
fn run_to_repair(sim: &mut Sim, pmm: &PmmHandle) {
    let ceiling = SimTime(300 * SECS);
    while pmm
        .vol_stats
        .iter()
        .any(|vs| vs.lock().resilvers_completed == 0)
    {
        let now = sim.now();
        assert!(now < ceiling, "resilver never completed");
        sim.run_until(SimTime(now.as_nanos() + SECS));
    }
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

/// 4-member pool, 32 MiB striped over it, every stripe unit dirtied while
/// one half of every member is out: the whole region is copied, by four
/// pairs at once.
fn pool_rows(metrics: &mut Vec<(String, f64)>) {
    const MEMBERS: u32 = 4;
    const REGION: u64 = 32 << 20;
    const STRIPE_UNIT: u64 = 64 << 10;
    let chunk = PmmConfig::default().resilver_chunk;
    let writes = OutageWrites {
        region: "payload",
        len: REGION,
        placement: pmm::PlacementHint::Striped { unit: STRIPE_UNIT },
        at: SimTime(4 * MILLIS),
        span: REGION,
        stride: STRIPE_UNIT,
    };
    let (mut sim, pmm, net) = build(MEMBERS, chunk, writes);
    run_to_repair(&mut sim, &pmm);
    let vols: Vec<pmm::PmmStats> = pmm.vol_stats.iter().map(|vs| *vs.lock()).collect();
    // The pool's exposure: first member to start repairing until the last
    // one finishes (they overlap).
    let started = vols.iter().map(|s| s.resilver_started_ns).min().unwrap();
    let completed = vols.iter().map(|s| s.resilver_completed_ns).max().unwrap();
    let dur_ns = (completed - started).max(1);
    let copied: u64 = vols.iter().map(|s| s.resilver_bytes_copied).sum();
    let digested: u64 = vols.iter().map(|s| s.resilver_bytes_digested).sum();
    let rate_mb_s = mib(copied) / (dur_ns as f64 / SECS as f64);
    // What the bulk class carried besides copy payload and 64-byte
    // commands: the digest replies.
    let (ns, bulk) = {
        let n = net.lock();
        (n.stats, n.class_totals()[TrafficClass::Bulk.idx()])
    };
    let digest_wire =
        bulk.bytes - ns.rdma_copy_bytes - CMD_BYTES * (ns.rdma_copies + ns.rdma_scrubs);
    // Chunks × looks × 2 halves, as the PMM counted them.
    let digests = digested / chunk as u64;
    assert_eq!(
        copied, REGION,
        "every chunk diverged, every chunk is copied"
    );
    assert_eq!(ns.rdma_copy_bytes, copied, "payload moves NPMU->NPMU only");
    assert!(
        rate_mb_s >= 300.0,
        "pool-wide repair at {rate_mb_s:.0} MB/s: the pairs are not repairing side by side"
    );
    assert!(
        digest_wire <= DIGEST_BYTES * digests,
        "verify shipped {digest_wire} B for {digests} chunk digests"
    );
    let ms = dur_ns as f64 / MILLIS as f64;
    let mut t = Table::new(&[
        "members",
        "region_MB",
        "mttr_ms",
        "rate_MB_per_s",
        "copied_MB",
        "scrub_cmds",
        "digest_wire_B",
    ]);
    t.row(&[
        MEMBERS.to_string(),
        (REGION >> 20).to_string(),
        format!("{ms:.2}"),
        format!("{rate_mb_s:.1}"),
        format!("{:.2}", mib(copied)),
        ns.rdma_scrubs.to_string(),
        digest_wire.to_string(),
    ]);
    t.print("Pool-wide outage: every member repairs at once, device to device");
    println!(
        "each pair copies on its own link (one pair alone: ~110 MB/s) and the \
         PMM's ports carry commands and digests only: {} scrub commands of up \
         to {} chunks, 8 B back per chunk per look per half",
        ns.rdma_scrubs,
        pmm::bulk::SCRUB_BATCH
    );
    metrics.push(("pool4_r32MB_mttr_ms".into(), ms));
    metrics.push(("pool4_r32MB_rate_mb_s".into(), rate_mb_s));
    metrics.push(("pool4_r32MB_digest_wire_b".into(), digest_wire as f64));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut t = Table::new(&[
        "region_MB",
        "chunk_KB",
        "diverged",
        "resilver_ms",
        "digested_MB",
        "copied_MB",
    ]);
    // (region MB, chunk KB, share of the region's chunks dirtied in the
    // outage: 0 = one chunk). In 1 MB a quarter *is* one chunk.
    let mut rows: Vec<(u64, u32, u64)> = vec![(1, 256, 0), (1, 256, 100)];
    for mb in [4u64, 16, 64] {
        rows.extend([0, 25, 100].map(|pct| (mb, 256u32, pct)));
    }
    rows.extend([(16, 64, 100), (16, 1024, 100)]);
    for (mb, chunk_kb, pct) in rows {
        let chunk = chunk_kb << 10;
        let dirty = ((mb << 20) / chunk as u64 * pct / 100).max(1);
        // The region's first `dirty` resilver chunks are written to while
        // half "b" is out.
        let writes = OutageWrites {
            region: "payload",
            len: mb << 20,
            placement: pmm::PlacementHint::Auto,
            at: SimTime(4 * MILLIS),
            span: dirty * chunk as u64,
            stride: chunk as u64,
        };
        let (mut sim, pmm, _net) = build(1, chunk, writes);
        run_to_repair(&mut sim, &pmm);
        let s = *pmm.stats.lock();
        let ms = (s.resilver_completed_ns - s.resilver_started_ns) as f64 / MILLIS as f64;
        // Smoke contract (ci.sh runs this binary): repair in proportion.
        assert_eq!(
            s.resilver_bytes_copied,
            dirty * chunk as u64,
            "{mb} MB / {pct}%: copied something other than what diverged"
        );
        assert!(
            (mb, pct) != (64, 0) || ms <= 80.0,
            "64 MB, one chunk dirtied: {ms:.1} ms is more than a scan and a chunk"
        );
        let label = if pct == 0 {
            "1chunk".to_string()
        } else {
            format!("{pct}pct")
        };
        let key = format!("r{mb}MB_c{chunk_kb}KB_{label}");
        metrics.push((format!("{key}_resilver_ms"), ms));
        metrics.push((format!("{key}_digested_mb"), mib(s.resilver_bytes_digested)));
        metrics.push((format!("{key}_copied_mb"), mib(s.resilver_bytes_copied)));
        t.row(&[
            mb.to_string(),
            chunk_kb.to_string(),
            label,
            format!("{ms:.2}"),
            format!("{:.1}", mib(s.resilver_bytes_digested)),
            format!("{:.2}", mib(s.resilver_bytes_copied)),
        ]);
    }
    t.print("Resilver MTTR: redundancy-repair time vs allocated and diverged bytes");
    println!(
        "MTTR ~ allocated / scan rate + diverged / copy rate: flat in the \
         region's size at fixed divergence but for the scan (both halves \
         digest at {} MB/s side by side; digested_MB counts both), linear in \
         what diverged at the link's ~110 MB/s; chunk size barely moves either",
        npmu::DIGEST_BW_BPS / 1_000_000
    );

    pool_rows(&mut metrics);
    if pm_bench::json::wants_json(&args) {
        let path = pm_bench::json::emit("resilver_mttr", &metrics).expect("write json");
        println!("wrote {}", path.display());
    }
}
