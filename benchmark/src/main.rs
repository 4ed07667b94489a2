//! `odsbench`: one end-to-end benchmark of the simulated online data store.
//!
//! ```text
//! odsbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! odsbench --compare <first.jsonl> <second.jsonl>
//! ```
//!
//! Each workload prints one JSON line (`correct`, `attempted`, `failed`,
//! `metrics`) as the last line of standard output; progress goes to
//! standard error. See `README.md` beside the manifest for the dictionary.

mod alloc;
mod driver;
mod harness;
mod json;
mod kernel;
mod metrics;
mod oracle;
mod plan;
mod reader;
mod report;
mod rig;
mod stats;

use harness::Rep;
use metrics::{Better, END_TO_END};
use plan::{Plan, Spec, DEFAULT_SEED, HELD_OUT_SEED, REF_SECONDS, WORKLOADS};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Repetitions of the untraced run, whose host times are bounded.
const REPS_UNTRACED: usize = 4;
/// The traced run: one untraced repetition as the base, then two traced.
const REPS_TRACED: usize = 3;
/// Set-up samples: each repetition's own, and after each repetition
/// set-up-only passes until `SETUP_EXTRA` were taken or `SETUP_BUDGET_S`
/// went into them (always one). Spread over the run, they do not all fall
/// into one burst of interference; a 12 ms set-up needs many samples for a
/// steady median and can afford them.
const SETUP_EXTRA: usize = 5;
const SETUP_BUDGET_S: f64 = 0.2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: odsbench --workload <{}|all> [--seed N] [--seconds 1..60] [--trace 0|1] [--quick]\n       odsbench --compare <first.jsonl> <second.jsonl>\ndefault seed {DEFAULT_SEED:#x}; quote a claim for the held-out seed {HELD_OUT_SEED:#x} too",
        WORKLOADS.map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: REF_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = it.next()?.clone(),
            "--seed" => args.seed = parse_u64(it.next()?)?,
            "--seconds" => args.seconds = parse_u64(it.next()?).filter(|s| (1..=60).contains(s))?,
            "--trace" => args.trace = parse_u64(it.next()?).filter(|t| *t <= 1)? == 1,
            "--quick" => args.quick = true,
            _ => return None,
        }
    }
    (args.workload == "all" || plan::workload(&args.workload).is_some()).then_some(args)
}

/// Run `spec` once for the driver: repetitions, guards, metrics. Returns
/// whether the outputs were correct and the result line.
fn run_workload(spec: &Spec, args: &Args) -> (bool, String) {
    let started = Instant::now();
    eprintln!("{}: {}", spec.name, spec.why);
    let plan = Arc::new(Plan::generate(spec, args.seed, args.seconds, args.quick));
    let n_reps = if args.trace {
        REPS_TRACED
    } else {
        REPS_UNTRACED
    };
    let mut reps: Vec<Rep> = Vec::with_capacity(n_reps);
    let mut setup: Vec<f64> = Vec::new();
    let mut diverged = false;
    for r in 0..n_reps {
        let mut rep = harness::run_rep(spec, &plan, args.seed, args.trace && r > 0);
        // Determinism guard: also what makes the slice minimum valid.
        if let Some(why) = reps
            .first()
            .and_then(|first| harness::divergence(first, &rep))
        {
            eprintln!(
                "{}: repetition {r} is not a replay of repetition 0: {why}",
                spec.name
            );
            diverged = true;
        }
        if r > 0 && !args.trace {
            // Only its host times are used from here on.
            rep.log = Default::default();
        }
        if !args.trace {
            setup.push(rep.setup_s());
            let (t, had) = (Instant::now(), setup.len());
            while setup.len() == had
                || (setup.len() < had + SETUP_EXTRA && t.elapsed().as_secs_f64() < SETUP_BUDGET_S)
            {
                setup.push(harness::setup_only(spec, &plan, args.seed));
            }
        }
        eprintln!(
            "{} rep {r}: setup {:.3}s, {} slices, {:.3}s host, {} events",
            spec.name,
            rep.setup_s(),
            rep.slices.len(),
            rep.slice_host().iter().sum::<u64>() as f64 / 1e9,
            rep.slices.iter().map(|s| s.events).sum::<u64>(),
        );
        reps.push(rep);
    }

    // The crates' `HashMap`s are seeded per process start and per map, so
    // a rehash may land one allocation earlier or later; more than that
    // means the repetitions did different work.
    if args.trace && reps[1].allocs.0.abs_diff(reps[2].allocs.0) * 1_000 > reps[1].allocs.0 {
        eprintln!(
            "{}: allocation counts differ between traced repetitions: {:?} vs {:?}",
            spec.name, reps[1].allocs, reps[2].allocs
        );
        diverged = true;
    }

    let (attempted, failed) = report::attempted_failed(&reps);
    let correct = !diverged && failed == 0;
    let (p50, p99, rate) = reps[0].sim_metrics();
    eprintln!(
        "{}: {} measured txns, p50 {:.1} us, p99 {:.1} us ({} samples beyond), {:.1} commits/sim-s, oracle checked {} acked commits, {} failed of {} attempted",
        spec.name,
        reps[0].measured().len(),
        p50 as f64 / 1e3,
        p99 as f64 / 1e3,
        reps[0].measured().len() / 100,
        rate,
        reps[0].oracle.checked,
        failed,
        attempted,
    );

    let metrics = if args.trace {
        let kernel_ns = kernel::kernel_ns_per_event();
        let m = report::per_layer(&reps[0], &reps[1..], kernel_ns, spec.window_slices);
        write_trace(spec, args.seed, &reps[1], &m);
        m
    } else {
        report::end_to_end(&reps, spec.window_slices, &mut setup)
    };
    for (name, v) in &metrics {
        eprintln!("  {name:<40} {v}");
    }
    eprintln!(
        "{}: run took {:.1}s",
        spec.name,
        started.elapsed().as_secs_f64()
    );
    (
        correct,
        report::result_line(correct, attempted, failed, &metrics),
    )
}

/// Run this program again for one workload of `all`, passing its standard
/// error through, and return its exit status and result line.
fn run_in_child(spec: &Spec, argv: &[String]) -> (bool, String) {
    let mut child_args = argv.to_vec();
    let at = child_args
        .iter()
        .position(|a| a == "--workload")
        .expect("parsed");
    child_args[at + 1] = spec.name.to_string();
    let out = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output()
    });
    match out {
        Ok(out) => {
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default().to_string();
            (out.status.success(), line)
        }
        Err(e) => {
            eprintln!("{}: could not run the child: {e}", spec.name);
            (false, String::new())
        }
    }
}

/// Write `out/trace_<workload>.json` beside the manifest.
fn write_trace(spec: &Spec, seed: u64, rep: &Rep, metrics: &[(&'static str, f64)]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace_{}.json", spec.name));
    let doc = report::trace_document(spec, seed, rep, metrics).encode();
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => eprintln!("{}: wrote {}", spec.name, path.display()),
        Err(e) => eprintln!("{}: could not write {}: {e}", spec.name, path.display()),
    }
}

/// A/A (or parent/change) table over two files of result lines, one line
/// per workload in `WORKLOADS` order. Fails if any end-to-end metric of the
/// second is worse than the first by more than its bound.
fn compare(first: &str, second: &str) -> ExitCode {
    let load = |path: &str| -> Result<Vec<json::Value>, String> {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))?
            .lines()
            .filter(|l| l.starts_with('{'))
            .map(|l| json::parse(l).map_err(|e| format!("{path}: {e}")))
            .collect()
    };
    let (a, b) = match (load(first), load(second)) {
        (Ok(a), Ok(b)) if a.len() == b.len() && a.len() <= WORKLOADS.len() => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
        _ => {
            eprintln!("the files do not hold the same workloads");
            return ExitCode::from(2);
        }
    };
    let value =
        |doc: &json::Value, name: &str| doc.get("metrics")?.get(name)?.get("value")?.as_f64();
    let mut ok = true;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "worse%", "bound%"
    );
    for ((spec, a), b) in WORKLOADS.iter().zip(&a).zip(&b) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (value(a, m.name), value(b, m.name)) else {
                continue;
            };
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let bound = m.bound.unwrap_or(0.0);
            let pass = worse <= bound;
            ok &= pass;
            println!(
                "{:<18} {:<18} {:>14.4} {:>14.4} {:>8.2} {:>6.1}  {}",
                spec.name,
                m.name,
                x,
                y,
                worse * 100.0,
                bound * 100.0,
                if pass { "pass" } else { "FAIL" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, first, second] = argv.as_slice() {
        if flag == "--compare" {
            return compare(first, second);
        }
    }
    let Some(args) = parse_args(&argv) else {
        return usage();
    };
    let mut all_correct = true;
    let mut p50 = Vec::new();
    for spec in &WORKLOADS {
        let (correct, line) = if args.workload == spec.name {
            run_workload(spec, &args)
        } else if args.workload == "all" {
            // One process per workload, as the driver runs them: peak
            // memory and allocator state must not carry over.
            run_in_child(spec, &argv)
        } else {
            continue;
        };
        all_correct &= correct;
        if let Some(v) = json::parse(&line).ok().as_ref().and_then(|d| {
            d.get("metrics")?
                .get("commit_p50_us")?
                .get("value")?
                .as_f64()
        }) {
            p50.push((spec.name, v));
        }
        println!("{line}");
    }
    // Report-only model check: absolute simulated times are calibrated to
    // the paper's constants, not validated.
    let of = |name: &str| p50.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
    if let (Some(pm), Some(disk)) = (of("trade_pm"), of("trade_disk")) {
        eprintln!(
            "model check: trade_disk / trade_pm commit p50 = {:.1}x (the paper reports response time up to 3.5x better at 32K transactions)",
            disk / pm
        );
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
