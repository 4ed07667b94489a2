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

use npmu::{Npmu, NpmuConfig};
use nsk::machine::{CpuId, Machine, MachineConfig};
use nsk::Monitor;
use pm_bench::outage::{self, OutageWrites};
use pm_bench::Table;
use pmm::{install_pmm_pair, PmmConfig, PmmHandle};
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, Sim, SimDuration, SimTime};
use simnet::{FabricConfig, Network};

/// A `region_len`-byte region whose first `dirty_chunks` resilver chunks
/// are written to while half "b" is out.
fn build(region_len: u64, chunk: u32, dirty_chunks: u64) -> (Sim, PmmHandle) {
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
    let cap = region_len + pmm::META_BYTES + (1 << 20);
    let a = Npmu::install(
        &mut sim,
        &mut store,
        &net,
        Some(&machine),
        "pm-a",
        NpmuConfig::hardware(cap),
    );
    let b = Npmu::install(
        &mut sim,
        &mut store,
        &net,
        Some(&machine),
        "pm-b",
        NpmuConfig::hardware(cap),
    );
    let pmm = install_pmm_pair(
        &mut sim,
        &machine,
        "$PMM",
        &a,
        &b,
        CpuId(0),
        None,
        PmmConfig {
            probe_interval: SimDuration::from_millis(10),
            resilver_chunk: chunk,
            ..PmmConfig::default()
        },
    );
    // Half "b" dies at 2 ms and revives, stale, at 10 ms.
    Monitor::install(
        &mut sim,
        &machine,
        FaultPlan::none().with(Fault::NpmuDown {
            volume_half: 1,
            from: SimTime(2 * MILLIS),
            to: SimTime(10 * MILLIS),
        }),
    );
    let writes = OutageWrites {
        region: "payload",
        len: region_len,
        placement: pmm::PlacementHint::Auto,
        at: SimTime(4 * MILLIS),
        span: dirty_chunks * chunk as u64,
        stride: chunk as u64,
    };
    outage::install(&mut sim, &machine, CpuId(2), "$PMM", writes);
    (sim, pmm)
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
        let (mut sim, pmm) = build(mb << 20, chunk, dirty);
        // Generous ceiling; the run idles out long before it.
        let ceiling = SimTime(300 * SECS);
        while pmm.stats.lock().resilvers_completed == 0 {
            let now = sim.now();
            assert!(now < ceiling, "resilver never completed");
            sim.run_until(SimTime(now.as_nanos() + SECS));
        }
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
        let mib = |bytes: u64| bytes as f64 / (1 << 20) as f64;
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
    if pm_bench::json::wants_json(&args) {
        let path = pm_bench::json::emit("resilver_mttr", &metrics).expect("write json");
        println!("wrote {}", path.display());
    }
}
