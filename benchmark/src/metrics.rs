//! The metric dictionary: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) the bound by which it may get
//! worse. `BENCHMARK.json` must list exactly these; a unit test compares.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Printed by every workload with `--trace 0`. Simulated metrics
/// (`*_us`, `*_per_sim_s`) are what the modelled hardware would take and
/// repeat bit-exactly for a fixed seed; their bounds cover the spread
/// between seeds. Host metrics are what the simulator costs here.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("commit_p50_us", "us", Lower, 0.02),
    e2e("commit_p99_us", "us", Lower, 0.08),
    e2e("commits_per_sim_s", "1/s", Higher, 0.03),
    e2e("wall_s", "s", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
];

/// Printed by every workload with `--trace 1`: `layer.metric`, the layer
/// being the crate the number describes. Counts are per measured commit.
pub const PER_LAYER: [MetricDef; 66] = [
    layer("simcore.events_per_commit", "count", Lower),
    layer("simcore.host_ns_per_event", "ns", Lower),
    layer("simcore.slice_host_ms_max", "ms", Lower),
    layer("simcore.allocs_per_event", "count", Lower),
    layer("simcore.alloc_bytes_per_event", "B", Lower),
    layer("simcore.kernel_ns_per_event", "ns", Lower),
    layer("nsk.msgs_per_commit", "count", Lower),
    layer("nsk.checkpoints_per_commit", "count", Lower),
    layer("nsk.cpu_busy_frac_max", "frac", Lower),
    layer("nsk.cpu_busy_frac_mean", "frac", Lower),
    layer("simnet.fabric_ops_per_commit", "count", Lower),
    layer("simnet.fabric_bytes_per_commit", "B", Lower),
    layer("simnet.commit_class_max_wait_us", "us", Lower),
    layer("simnet.commit_class_peak_depth", "count", Lower),
    layer("simnet.bulk_class_max_wait_us", "us", Lower),
    layer("simnet.bulk_bytes_mb", "MB", Lower),
    layer("simnet.retransmits", "count", Lower),
    layer("simnet.unreachable", "count", Lower),
    layer("npmu.writes_per_commit", "count", Lower),
    layer("npmu.flushes_per_commit", "count", Lower),
    layer("npmu.reads_per_commit", "count", Lower),
    layer("npmu.bytes_written_per_commit", "B", Lower),
    layer("npmu.failed_ops", "count", Lower),
    layer("npmu.ingress_lost_bytes", "B", Lower),
    layer("pmclient.read_p50_us", "us", Lower),
    layer("pmclient.tailread_p99_us", "us", Lower),
    layer("pmclient.read_mb_per_sim_s", "MB/s", Higher),
    layer("pmclient.read_err_frac", "frac", Lower),
    layer("pmm.resilver_mb_per_sim_s", "MB/s", Higher),
    layer("pmm.resilver_ms_mean", "ms", Lower),
    layer("pmm.resilver_ms_max", "ms", Lower),
    layer("pmm.resilver_extra_passes", "count", Lower),
    layer("pmm.bulk_throttle_waits", "count", Lower),
    layer("pmm.failure_reports", "count", Lower),
    layer("pmm.degraded_events", "count", Lower),
    layer("txnkit.begin_p50_us", "us", Lower),
    layer("txnkit.begin_p99_us", "us", Lower),
    layer("txnkit.insert_rtt_p50_us", "us", Lower),
    layer("txnkit.insert_rtt_p99_us", "us", Lower),
    layer("txnkit.insert_phase_p50_us", "us", Lower),
    layer("txnkit.commit_phase_p50_us", "us", Lower),
    layer("txnkit.commit_phase_p99_us", "us", Lower),
    layer("txnkit.flush_mean_us", "us", Lower),
    layer("txnkit.flush_p95_us", "us", Lower),
    layer("txnkit.tmf_self_mean_us", "us", Lower),
    layer("txnkit.phase_sum_vs_response", "ratio", Lower),
    layer("txnkit.pm_writes_per_commit", "count", Lower),
    layer("txnkit.pm_batch_coalesce", "ratio", Higher),
    layer("txnkit.pm_ctrl_writes_per_commit", "count", Lower),
    layer("txnkit.actions_per_insert", "count", Lower),
    layer("txnkit.twopc_prepares_per_commit", "count", Lower),
    layer("txnkit.cross_commit_p50_us", "us", Lower),
    layer("txnkit.local_commit_p50_us", "us", Lower),
    layer("txnkit.aborts", "count", Lower),
    layer("txnkit.lock_timeouts", "count", Lower),
    layer("txnkit.deadlocks", "count", Lower),
    layer("txnkit.trail_bytes_per_commit", "B", Lower),
    layer("txnkit.redo_host_ms", "ms", Lower),
    layer("txnkit.redo_krec_per_host_s", "krec/s", Higher),
    layer("simdisk.audit_write_p50_us", "us", Lower),
    layer("simdisk.audit_writes_per_commit", "count", Lower),
    layer("simdisk.data_writes_per_commit", "count", Lower),
    layer("simdisk.seq_frac", "frac", Higher),
    layer("harness.slices", "count", Higher),
    layer("harness.rep_spread_frac", "frac", Lower),
    layer("harness.trace_overhead_frac", "frac", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use crate::plan::{REF_SECONDS, WORKLOADS};

    fn legal_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn legal_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(legal_name(m.name), "{}", m.name);
            assert!(legal_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(legal_name(w.name) && seen.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
    }

    /// `BENCHMARK.json` and the dictionary agree one-to-one, in order.
    #[test]
    fn benchmark_json_matches_the_dictionary() {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        assert!(text.len() <= 64 << 10);
        let doc = parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(REF_SECONDS as f64)
        );

        let listed = |key: &str| -> Vec<Vec<(String, Value)>> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|v| v.as_obj().unwrap().to_vec())
                .collect()
        };
        let want: Vec<Vec<(String, Value)>> = WORKLOADS
            .iter()
            .map(|w| {
                vec![
                    ("name".to_string(), Value::from(w.name)),
                    ("why".to_string(), Value::from(w.why)),
                ]
            })
            .collect();
        assert_eq!(listed("workloads"), want);
        let row = |m: &MetricDef| {
            let mut r = vec![
                ("name".to_string(), Value::from(m.name)),
                ("unit".to_string(), Value::from(m.unit)),
                ("better".to_string(), Value::from(m.better.label())),
            ];
            if let Some(b) = m.bound {
                r.push(("bound".to_string(), Value::from(b)));
            }
            r
        };
        assert_eq!(
            listed("end_to_end"),
            END_TO_END.iter().map(row).collect::<Vec<_>>()
        );
        assert_eq!(
            listed("per_layer"),
            PER_LAYER.iter().map(row).collect::<Vec<_>>()
        );
    }
}
