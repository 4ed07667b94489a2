//! T1 — durable-write latency by attachment (§3.2/§3.3 claims):
//! "The handling of SCSI commands, DMA, interrupts and context switching
//! results in 100s of microseconds – usually milliseconds – of I/O
//! latency" vs host-initiated RDMA PM at "only 10s of microseconds".
//!
//! Each mirrored PM row sits beside the same write to one half only and
//! the same mirrored write with fabric Y down, with the share of the
//! measured bytes each fabric carried: the mirror legs ride separate
//! fabrics, so mirroring costs no serial wire time until a fabric is
//! lost. The bin asserts both.

use pm_bench::{
    json, measure_disk_write, measure_pm_write, measure_pm_write_fabrics, MeasureOpts,
    PmPathVariant, Table,
};
use pmclient::MirrorPolicy;
use pmem::NpmuConfig;
use simdisk::{DiskConfig, WriteCachePolicy};
use simnet::{FabricConfig, ServerNetGen};

fn main() {
    const N: u32 = 200;
    let args: Vec<String> = std::env::args().collect();
    let mut t = Table::new(&[
        "path",
        "size_B",
        "mean_us",
        "p95_us",
        "durable",
        "X:Y_bytes_%",
    ]);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let record =
        |metrics: &mut Vec<(String, f64)>, key: &str, size: u32, h: &simcore::Histogram| {
            metrics.push((format!("{key}_{size}b_mean_us"), h.mean() / 1e3));
            metrics.push((format!("{key}_{size}b_p50_us"), h.p50() as f64 / 1e3));
            metrics.push((format!("{key}_{size}b_p99_us"), h.p99() as f64 / 1e3));
        };

    for size in [64u32, 4096] {
        let disk_rand = measure_disk_write(DiskConfig::audit_volume(), size, N, false);
        t.row(&[
            "disk write-through (random)".into(),
            size.to_string(),
            format!("{:.1}", disk_rand.mean() / 1e3),
            format!("{:.1}", disk_rand.p95() as f64 / 1e3),
            "yes".into(),
            "-".into(),
        ]);
        record(&mut metrics, "disk_random", size, &disk_rand);
        let disk_seq = measure_disk_write(DiskConfig::audit_volume(), size, N, true);
        t.row(&[
            "disk write-through (log-sequential)".into(),
            size.to_string(),
            format!("{:.1}", disk_seq.mean() / 1e3),
            format!("{:.1}", disk_seq.p95() as f64 / 1e3),
            "yes".into(),
            "-".into(),
        ]);
        record(&mut metrics, "disk_sequential", size, &disk_seq);
        let disk_bb = measure_disk_write(
            DiskConfig {
                cache: WriteCachePolicy::BatteryBacked,
                ..DiskConfig::default()
            },
            size,
            N,
            false,
        );
        t.row(&[
            "disk + battery-backed cache".into(),
            size.to_string(),
            format!("{:.1}", disk_bb.mean() / 1e3),
            format!("{:.1}", disk_bb.p95() as f64 / 1e3),
            "yes (battery)".into(),
            "-".into(),
        ]);
        record(&mut metrics, "disk_battery_cache", size, &disk_bb);
        let pm_stack = measure_pm_write(MeasureOpts {
            variant: PmPathVariant::StorageStack,
            ..MeasureOpts::pm_default(N, size)
        });
        t.row(&[
            "PM behind block storage stack".into(),
            size.to_string(),
            format!("{:.1}", pm_stack.mean() / 1e3),
            format!("{:.1}", pm_stack.p95() as f64 / 1e3),
            "yes".into(),
            "-".into(),
        ]);
        record(&mut metrics, "pm_storage_stack", size, &pm_stack);
        for (label, generation) in [("gen1", ServerNetGen::Gen1), ("gen2", ServerNetGen::Gen2)] {
            let fabric = FabricConfig::for_gen(generation);
            let wire_ns = simnet::latency::wire_ns(&fabric, size) as f64;
            // (row label, JSON key suffix, policy, fabric taken down)
            let (one_half, both) = (MirrorPolicy::PrimaryOnly, MirrorPolicy::ParallelBoth);
            let arms = [
                ("one half", "_one_half", one_half, None),
                ("mirrored", "", both, None),
                ("mirrored, Y down", "_y_down", both, Some(1)),
            ];
            let mut means = [0.0; 3];
            for (i, (arm, key, policy, fabric_down)) in arms.into_iter().enumerate() {
                let (pm, bytes) = measure_pm_write_fabrics(MeasureOpts {
                    fabric: fabric.clone(),
                    policy,
                    fabric_down,
                    ..MeasureOpts::pm_default(N, size)
                });
                means[i] = pm.mean();
                let x_pct = 100.0 * bytes[0] as f64 / (bytes[0] + bytes[1]) as f64;
                t.row(&[
                    format!("PM direct RDMA ({label}, {arm})"),
                    size.to_string(),
                    format!("{:.1}", pm.mean() / 1e3),
                    format!("{:.1}", pm.p95() as f64 / 1e3),
                    if i == 0 { "yes" } else { "yes (mirrored)" }.into(),
                    format!("{x_pct:.0}:{:.0}", 100.0 - x_pct),
                ]);
                record(&mut metrics, &format!("pm_rdma_{label}{key}"), size, &pm);
                // Half the bytes on each fabric; all on X with Y down.
                let want_x_pct = if i == 1 { 50.0 } else { 100.0 };
                assert_eq!(x_pct, want_x_pct, "{label} {arm} {size} B: {bytes:?}");
            }
            let [one, mirrored, y_down] = means;
            if size == 4096 {
                assert!(
                    mirrored >= one && mirrored <= 1.05 * one,
                    "{label}: mirrored 4 KB write {mirrored:.0} ns vs one half {one:.0} ns"
                );
                assert!(
                    y_down >= one + wire_ns,
                    "{label}: on one fabric the second leg queues a wire time: \
                     {y_down:.0} vs {one:.0} + {wire_ns:.0} ns"
                );
            }
        }
        let pmp = measure_pm_write(MeasureOpts {
            device: NpmuConfig::pmp(64 << 20),
            ..MeasureOpts::pm_default(N, size)
        });
        t.row(&[
            "PMP prototype (direct RDMA)".into(),
            size.to_string(),
            format!("{:.1}", pmp.mean() / 1e3),
            format!("{:.1}", pmp.p95() as f64 / 1e3),
            "volatile (prototype)".into(),
            "-".into(),
        ]);
        record(&mut metrics, "pmp_prototype", size, &pmp);
    }

    t.print("T1: durable-write latency by attachment (paper §3.2–§3.3)");
    println!("paper bands: storage stack = 100s of us .. ms; PM direct = 10s of us");

    if json::wants_json(&args) {
        let path = json::emit("t1_latency", &metrics).expect("write json");
        println!("json: {}", path.display());
    }
}
