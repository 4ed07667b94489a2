//! Pure estimators: exact percentiles from raw samples, the slice-minimum
//! host-time estimator, and the phase ledger's reconciliation.

/// Exact nearest-rank percentile: the smallest sample with at least
/// `q * n` samples at or below it. Sorts `samples` in place; 0 when empty.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Per-slice host time from `reps` repetitions of the same deterministic
/// run, each cut into the same slices: slice `i` does identical work every
/// time, so its cheapest observation is the least disturbed one. Returns
/// `None` when the repetitions disagree on the slice count.
pub fn slice_min(reps: &[Vec<u64>]) -> Option<Vec<u64>> {
    let n = reps.first()?.len();
    if reps.iter().any(|r| r.len() != n) {
        return None;
    }
    Some(
        (0..n)
            .map(|i| reps.iter().map(|r| r[i]).min().unwrap_or(0))
            .collect(),
    )
}

/// Host time of the whole phase from its per-slice times: the slices are
/// grouped into consecutive windows of `window` slices, and the estimate is
/// the median window scaled to the number of slices. On a workload whose
/// windows do the same work this is the plain total, minus the windows a
/// noisy neighbour disturbed in every repetition; where a window is one
/// cycle of background work with a heavy-tailed cost it is the typical
/// cycle, not the mean. Fewer slices than one window: the plain total.
pub fn windowed_median_total(slices: &[u64], window: usize) -> f64 {
    let mut sums: Vec<f64> = slices
        .chunks_exact(window.max(1))
        .map(|w| w.iter().sum::<u64>() as f64)
        .collect();
    if sums.is_empty() {
        return slices.iter().sum::<u64>() as f64;
    }
    median_f64(&mut sums) * slices.len() as f64 / window as f64
}

/// `(max - min) / min` of the repetitions' plain totals: the noise the
/// slice-minimum estimator removed.
pub fn rep_spread(reps: &[Vec<u64>]) -> f64 {
    let totals: Vec<u64> = reps.iter().map(|r| r.iter().sum()).collect();
    match (totals.iter().min(), totals.iter().max()) {
        (Some(&lo), Some(&hi)) if lo > 0 => (hi - lo) as f64 / lo as f64,
        _ => 0.0,
    }
}

/// One transaction's client-side ledger, simulated ns.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub begin: u64,
    /// Begun to first insert issued: the driver's issue cost.
    pub issue_wait: u64,
    pub insert_phase: u64,
    pub commit_phase: u64,
    pub response: u64,
}

/// Sum of the phases over the sum of the response times. The ledger only
/// counts if this is 1.
pub fn phase_sum_vs_response(phases: &[Phases]) -> f64 {
    let (mut parts, mut whole) = (0u128, 0u128);
    for p in phases {
        parts += (p.begin + p.issue_wait + p.insert_phase + p.commit_phase) as u128;
        whole += p.response as u128;
    }
    if whole == 0 {
        return 0.0;
    }
    parts as f64 / whole as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        let mut odd = vec![7, 1, 1_000_003];
        assert_eq!(percentile(&mut odd, 0.5), 7);
        // No quantisation: a value between buckets of any histogram.
        assert_eq!(percentile(&mut odd, 0.99), 1_000_003);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn slice_min_recovers_the_undisturbed_cost_from_noisy_repetitions() {
        // True cost 100 per slice; each repetition is disturbed on a
        // different third of its slices by a large, one-sided delay.
        let truth = 100u64;
        let slices = 300;
        let reps: Vec<Vec<u64>> = (0..3)
            .map(|r| {
                (0..slices)
                    .map(|i| truth + if i % 3 == r { 40 + (i as u64 % 7) } else { 0 })
                    .collect()
            })
            .collect();
        let est: u64 = slice_min(&reps).unwrap().iter().sum();
        assert_eq!(est, truth * slices as u64);
        let plain: u64 = reps[0].iter().sum();
        assert!(plain as f64 > est as f64 * 1.10, "totals carry the noise");
        assert!(
            rep_spread(&reps) < 0.01,
            "yet the totals agree with each other"
        );
        assert_eq!(slice_min(&[vec![1, 2], vec![1]]), None);
    }

    #[test]
    fn windowed_median_is_the_total_on_uniform_work_and_sheds_a_heavy_tail() {
        let uniform = vec![10u64; 95];
        assert_eq!(windowed_median_total(&uniform, 10), 950.0);
        // 16 cycles of 10 slices; each has one expensive slice, and two
        // cycles drew from the tail.
        let mut cyclic = vec![10u64; 160];
        for c in 0..16 {
            cyclic[c * 10 + 3] = if c == 5 || c == 11 { 5_000 } else { 100 };
        }
        assert_eq!(windowed_median_total(&cyclic, 10), 16.0 * 190.0);
        assert_eq!(windowed_median_total(&[4, 5], 10), 9.0);
    }

    #[test]
    fn ledger_reconciles_only_when_phases_cover_the_response() {
        let whole = Phases {
            begin: 10,
            issue_wait: 20,
            insert_phase: 30,
            commit_phase: 40,
            response: 100,
        };
        assert_eq!(phase_sum_vs_response(&[whole; 5]), 1.0);
        let gap = Phases {
            commit_phase: 30,
            ..whole
        };
        assert!((phase_sum_vs_response(&[gap]) - 0.9).abs() < 1e-12);
        assert_eq!(phase_sum_vs_response(&[]), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
