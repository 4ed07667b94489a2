//! From repetitions to numbers: the end-to-end metrics of the untraced
//! run, the per-layer metrics of the traced run, and the trace document.

use crate::harness::Rep;
use crate::json::Value;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::plan::{Spec, WARMUP_TXNS};
use crate::reader::READ_BYTES;
use crate::stats::{self, Phases};

/// Operations attempted in the measured phase and how many failed: a
/// transaction that aborted, timed out, never settled or was acknowledged
/// and then lost; a tail read that erred or never completed; and every
/// other oracle violation. Transactions and reads are counted on the first
/// repetition (the others replay it); the oracle runs on every one.
pub fn attempted_failed(reps: &[Rep]) -> (u64, u64) {
    let rep = &reps[0];
    let measured = rep.measured();
    let aborted = measured.iter().filter(|t| !t.committed).count() as u64;
    let reads_failed = rep.reads.iter().filter(|r| !r.ok).count() as u64;
    let attempted = rep.log.started.saturating_sub(WARMUP_TXNS) + rep.reads.len() as u64;
    let failed = aborted
        + rep.log.unsettled()
        + rep.log.insert_failures
        + rep.log.send_failures
        + reads_failed
        + reps.iter().map(|r| r.oracle.failures()).sum::<u64>();
    (attempted.max(1), failed)
}

/// Host seconds of the measured phase over `reps` of the same run.
fn wall_s(reps: &[Rep], window_slices: usize) -> f64 {
    let host: Vec<Vec<u64>> = reps.iter().map(Rep::slice_host).collect();
    let slices = stats::slice_min(&host).expect("repetitions passed the determinism guard");
    eprintln!(
        "  slice-minimum total {:.3}s, repetition totals spread {:.1}%",
        slices.iter().sum::<u64>() as f64 / 1e9,
        stats::rep_spread(&host) * 100.0
    );
    stats::windowed_median_total(&slices, window_slices) / 1e9
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn end_to_end(
    reps: &[Rep],
    window_slices: usize,
    setup_samples: &mut [f64],
) -> Vec<(&'static str, f64)> {
    let (p50, p99, rate) = reps[0].sim_metrics();
    let values = [
        p50 as f64 / 1e3,
        p99 as f64 / 1e3,
        rate,
        wall_s(reps, window_slices),
        stats::median_f64(setup_samples),
        peak_rss_mb(),
    ];
    END_TO_END.iter().map(|m| m.name).zip(values).collect()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics from the repetitions of a traced run: `traced` carry
/// probes, spans and allocation counts, `untraced` is the same run without
/// them (its host time is the base of the tracing overhead).
pub fn per_layer(
    untraced: &Rep,
    traced: &[Rep],
    kernel_ns: f64,
    window_slices: usize,
) -> Vec<(&'static str, f64)> {
    let rep = &traced[0];
    let first = &rep.probe_rows[0];
    let last = rep
        .probe_rows
        .last()
        .expect("a traced repetition has probes");
    let col = |key: &str| {
        rep.probe_keys
            .iter()
            .position(|k| k == key)
            .unwrap_or_else(|| panic!("no probe {key}"))
    };
    let d = |key: &str| {
        let c = col(key);
        (last[c] - first[c]) as f64
    };
    let end = |key: &str| last[col(key)] as f64;

    let measured = rep.measured();
    let committed: Vec<_> = measured.iter().filter(|t| t.committed).collect();
    let commits = committed.len() as f64;
    let span_ns = (rep.t_end - rep.t0) as f64;
    let events = d("sim.events");

    let all: Vec<&Rep> = std::iter::once(untraced).chain(traced).collect();
    let host: Vec<Vec<u64>> = all.iter().map(|r| r.slice_host()).collect();
    let slice_min = stats::slice_min(&host).expect("guarded");
    let host_total = slice_min.iter().sum::<u64>() as f64;
    let slice_max = slice_min.iter().copied().max().unwrap_or(0);
    // Tracing overhead with the estimator of `wall_s` on both sides.
    let typical = |host: &[Vec<u64>]| {
        stats::windowed_median_total(&stats::slice_min(host).expect("guarded"), window_slices)
    };
    let (untraced_host, traced_host) = (typical(&host[..1]), typical(&host[1..]));

    let busy: Vec<f64> = rep
        .worker_cpus
        .iter()
        .map(|c| d(&format!("cpu.{c}.work_ns")) / span_ns)
        .collect();

    let mut begin: Vec<u64> = committed.iter().map(|t| t.begun - t.begin_sent).collect();
    let mut insert_phase: Vec<u64> = committed
        .iter()
        .map(|t| t.last_done - t.first_issue)
        .collect();
    let mut commit_phase: Vec<u64> = committed
        .iter()
        .map(|t| t.settled - t.commit_sent)
        .collect();
    let mut insert_rtt: Vec<u64> = rep
        .log
        .insert_spans
        .iter()
        .filter(|s| s.issued >= rep.t0)
        .map(|s| s.done - s.issued)
        .collect();
    let mut cross: Vec<u64> = Vec::new();
    let mut local: Vec<u64> = Vec::new();
    for t in &committed {
        if t.cross { &mut cross } else { &mut local }.push(t.settled - t.begin_sent);
    }
    let ledger: Vec<Phases> = committed
        .iter()
        .map(|t| Phases {
            begin: t.begun - t.begin_sent,
            issue_wait: t.first_issue - t.begun,
            insert_phase: t.last_done - t.first_issue,
            commit_phase: t.settled - t.commit_sent,
            response: t.settled - t.begin_sent,
        })
        .collect();
    let commit_phase_mean = stats::mean(&commit_phase);
    let flush_mean_ns = ratio(d("txn.flush_sum_ns"), d("txn.flush_count"));

    let reads: Vec<_> = rep.reads.iter().filter(|r| r.issued >= rep.t0).collect();
    let mut read_lat: Vec<u64> = reads
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.done - r.issued)
        .collect();
    let reads_ok = read_lat.len() as f64;
    let mut resilver_ns: Vec<u64> = rep
        .resilvers
        .iter()
        .map(|r| r.completed - r.started)
        .collect();
    let resilver_total_ns: u64 = resilver_ns.iter().sum();
    let mb = (1u64 << 20) as f64;

    let redo_ns = all.iter().map(|r| r.oracle.redo_host_ns).min().unwrap_or(0) as f64;
    let actions = d("txn.dbw_checkpoints")
        + d("txn.audit_deltas")
        + d("txn.adp_checkpoints")
        + d("txn.data_volume_writes")
        + d("txn.audit_volume_writes")
        + d("txn.pm_writes");

    let values = [
        // simcore
        events / commits,
        host_total / events,
        slice_max as f64 / 1e6,
        rep.allocs.0 as f64 / events,
        rep.allocs.1 as f64 / events,
        kernel_ns,
        // nsk
        d("net.msgs") / commits,
        (d("txn.dbw_checkpoints") + d("txn.adp_checkpoints") + d("txn.tmf_checkpoints")) / commits,
        busy.iter().copied().fold(0.0, f64::max),
        busy.iter().sum::<f64>() / busy.len() as f64,
        // simnet
        (d("net.rdma_writes")
            + d("net.rdma_reads")
            + d("net.rdma_flushes")
            + d("net.rdma_appends"))
            / commits,
        (d("net.rdma_write_bytes") + d("net.rdma_read_bytes") + d("net.rdma_append_bytes"))
            / commits,
        end("net.commit.max_wait_ns") / 1e3,
        end("net.commit.peak_depth"),
        end("net.bulk.max_wait_ns") / 1e3,
        d("net.bulk.bytes") / mb,
        d("net.retransmits"),
        d("net.unreachable"),
        // npmu
        d("npmu.writes") / commits,
        d("npmu.flushes") / commits,
        d("npmu.reads") / commits,
        d("npmu.bytes_written") / commits,
        d("npmu.failed_ops"),
        d("npmu.ingress_lost_bytes"),
        // pmclient
        us(stats::percentile(&mut read_lat, 0.50)),
        us(stats::percentile(&mut read_lat, 0.99)),
        ratio(reads_ok * READ_BYTES as f64 / mb, span_ns / 1e9),
        ratio(reads.len() as f64 - reads_ok, reads.len() as f64),
        // pmm
        ratio(
            d("pmm.resilver_bytes_copied") / mb,
            resilver_total_ns as f64 / 1e9,
        ),
        stats::mean(&resilver_ns) / 1e6,
        stats::percentile(&mut resilver_ns, 1.0) as f64 / 1e6,
        d("pmm.resilver_extra_passes"),
        d("pmm.bulk_throttle_waits"),
        d("pmm.failure_reports"),
        d("pmm.degraded_events"),
        // txnkit
        us(stats::percentile(&mut begin, 0.50)),
        us(stats::percentile(&mut begin, 0.99)),
        us(stats::percentile(&mut insert_rtt, 0.50)),
        us(stats::percentile(&mut insert_rtt, 0.99)),
        us(stats::percentile(&mut insert_phase, 0.50)),
        us(stats::percentile(&mut commit_phase, 0.50)),
        us(stats::percentile(&mut commit_phase, 0.99)),
        flush_mean_ns / 1e3,
        us(rep.histo.0),
        (commit_phase_mean - flush_mean_ns) / 1e3,
        stats::phase_sum_vs_response(&ledger),
        d("txn.pm_writes") / commits,
        ratio(d("txn.pm_writes"), d("txn.pm_batches")),
        d("txn.pm_ctrl_writes") / commits,
        ratio(actions, d("txn.inserts")),
        d("txn.twopc_prepares") / commits,
        us(stats::percentile(&mut cross, 0.50)),
        us(stats::percentile(&mut local, 0.50)),
        (measured.len() - committed.len()) as f64,
        d("txn.lock_timeouts"),
        d("txn.deadlocks"),
        (d("npmu.half_a_bytes_written") + d("disk.audit.bytes_written")) / commits,
        redo_ns / 1e6,
        ratio(rep.oracle.records_scanned as f64 / 1e3, redo_ns / 1e9),
        // simdisk
        us(rep.histo.1),
        d("txn.audit_volume_writes") / commits,
        d("txn.data_volume_writes") / commits,
        ratio(
            d("disk.audit.sequential_ios"),
            d("disk.audit.sequential_ios") + d("disk.audit.random_ios"),
        ),
        // harness
        rep.slices.len() as f64,
        stats::rep_spread(&host),
        (traced_host - untraced_host) / untraced_host,
    ];
    PER_LAYER.iter().map(|m| m.name).zip(values).collect()
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|m| m.name == name)
            .map_or("", |m| m.unit)
    };
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|&(name, v)| {
                (
                    name,
                    Value::obj([
                        ("value", Value::from(v)),
                        ("unit", Value::from(unit_of(name))),
                    ]),
                )
            })),
        ),
    ])
    .encode()
}

/// Raw transaction spans kept in the trace file: the first this many of the
/// measured phase, then every 100th.
const SPAN_HEAD: usize = 10_000;

/// Everything a traced repetition kept in memory, as one document: host
/// spans of the harness, per-transaction spans (all sharing the
/// transaction id), the counter time series and the folded metrics.
pub fn trace_document(spec: &Spec, seed: u64, rep: &Rep, metrics: &[(&'static str, f64)]) -> Value {
    let nums = |v: &[u64]| Value::Arr(v.iter().map(|&n| Value::from(n)).collect());
    let span = |name: &str, host_ns: u64| {
        Value::obj([
            ("name", Value::from(name)),
            ("host_ns", Value::from(host_ns)),
        ])
    };
    let mut host_spans = vec![
        span("setup.build", rep.setup_host[0]),
        span("setup.install", rep.setup_host[1]),
        span("setup.warmup", rep.setup_host[2]),
        span("post.durability", rep.oracle.read_host_ns),
        span("post.redo_scan", rep.oracle.redo_host_ns),
        span("post.verify_mirrors", rep.oracle.verify_host_ns),
    ];
    host_spans.extend(rep.slices.iter().enumerate().map(|(i, s)| {
        Value::obj([
            ("name", Value::Str(format!("run.slice[{i}]"))),
            ("host_start_ns", Value::from(s.host_start)),
            ("host_ns", Value::from(s.host_ns)),
            ("sim_start_ns", Value::from(s.sim_start)),
            ("sim_end_ns", Value::from(s.sim_end)),
            ("events", Value::from(s.events)),
        ])
    }));

    // Insert spans arrive in completion order; group them by transaction.
    let mut inserts: std::collections::HashMap<u32, Vec<Value>> = std::collections::HashMap::new();
    let measured = rep.measured();
    let kept = |i: usize| i < SPAN_HEAD || i.is_multiple_of(100);
    for s in &rep.log.insert_spans {
        inserts
            .entry(s.begin_seq)
            .or_default()
            .push(nums(&[s.issued, s.done]));
    }
    let txn_spans: Vec<Value> = measured
        .iter()
        .enumerate()
        .filter(|(i, _)| kept(*i))
        .map(|(_, t)| {
            Value::obj([
                // As text: a cluster id keeps its shard in the top byte,
                // beyond what a JSON number holds exactly.
                ("txn", Value::Str(format!("{:#x}", t.txn.0))),
                ("cross", Value::Bool(t.cross)),
                ("committed", Value::Bool(t.committed)),
                ("span", nums(&[t.begin_sent, t.settled])),
                ("begin", nums(&[t.begin_sent, t.begun])),
                ("insert_phase", nums(&[t.first_issue, t.last_done])),
                ("commit_phase", nums(&[t.commit_sent, t.settled])),
                (
                    "inserts",
                    Value::Arr(inserts.remove(&t.begin_seq).unwrap_or_default()),
                ),
            ])
        })
        .collect();

    Value::obj([
        ("workload", Value::from(spec.name)),
        ("seed", Value::from(seed)),
        ("time_unit", Value::from("simulated ns unless named host_*")),
        ("measured_from_ns", Value::from(rep.t0)),
        ("measured_to_ns", Value::from(rep.t_end)),
        ("samples", Value::from(measured.len() as u64)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|&(k, v)| (k, Value::from(v)))),
        ),
        ("host_spans", Value::Arr(host_spans)),
        ("txn_spans", Value::Arr(txn_spans)),
        (
            "resilvers",
            Value::Arr(
                rep.resilvers
                    .iter()
                    .map(|r| nums(&[r.started, r.completed]))
                    .collect(),
            ),
        ),
        (
            "tail_reads",
            Value::Arr(
                rep.reads
                    .iter()
                    .map(|r| {
                        Value::Arr(vec![
                            Value::from(r.issued),
                            Value::from(r.done),
                            Value::Bool(r.ok),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "series",
            Value::obj([
                (
                    "keys",
                    Value::Arr(
                        rep.probe_keys
                            .iter()
                            .map(|k| Value::from(k.as_str()))
                            .collect(),
                    ),
                ),
                (
                    "rows",
                    Value::Arr(rep.probe_rows.iter().map(|r| nums(r)).collect()),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn result_line_parses_and_has_exactly_the_contract_keys() {
        let metrics: Vec<(&'static str, f64)> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.25 + i as f64 / 3.0))
            .collect();
        let line = result_line(true, 1000, 0, &metrics);
        assert!(!line.contains('\n'));
        let doc = parse(&line).expect("result line is JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(1000.0));
        let printed = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(printed.len(), END_TO_END.len());
        for ((name, entry), m) in printed.iter().zip(&END_TO_END) {
            assert_eq!(name, m.name);
            let fields: Vec<&str> = entry
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(fields, ["value", "unit"]);
            assert_eq!(entry.get("unit"), Some(&Value::from(m.unit)));
        }
    }
}
