//! Order statistics for timing samples.
//!
//! A run is a sequence of *epochs* (a fresh set-up and a stretch of work
//! after it), and a timed metric is built in two stages.
//!
//! Inside an epoch, a statistic is a percentile of the per-step samples,
//! never a mean. On the shared 2-vCPU box the benchmark was written on,
//! interference from the host only ever adds time, and it comes in bursts
//! that catch anything from a tenth to over three quarters of the samples.
//! So the samples a statistic is computed from are the *quiet set* — the
//! fastest [`QUIET_SHARE`] of the epoch's — and its p50 and p90 are
//! percentiles within that set ([`quiet`]).
//!
//! Over the epochs, the metric is the [`midmean`] of that statistic. An
//! epoch as a whole is fast or slow by up to a third — probably by where
//! its set-up landed in memory — and how many of a run's epochs are fast
//! changes from one hour to the next. A quantile over the epochs (the quiet set of all
//! samples pooled is one: the fastest epoch) jumps by that third when the
//! share crosses it; a mean moves in proportion, and trimming the ends
//! keeps one stalled epoch out.
//!
//! Plain percentiles are printed beside the metrics, the tail at the
//! highest percentile that still has [`MIN_BEYOND`] samples above it, so a
//! "p90" is never the second-largest of a dozen.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Share of an epoch's samples, fastest first, taken as undisturbed by the
/// host.
pub const QUIET_SHARE: f64 = 0.25;

/// Percentiles the tail picker chooses from, ascending.
const LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// Sorted copy of `v` (total order; NaN would sort last but never occurs —
/// samples are `Duration`s).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest rank of the `p`-th percentile among `n ≥ 1` samples, 1-based.
/// (The epsilon keeps `99.9 % of 10 000` at 9 990 despite rounding.)
fn rank(n: usize, p: f64) -> usize {
    (((p * n as f64 / 100.0) - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` % of the samples at or below it. Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The `p`-th percentile within the quiet set of `v`: the fastest
/// [`QUIET_SHARE`] of the samples (lower is faster).
pub fn quiet(v: &[f64], p: f64) -> f64 {
    percentile(&sorted(v), p * QUIET_SHARE)
}

/// Interquartile mean: the mean of what is left once the lowest and the
/// highest quarter (rounded down) are dropped. How a per-epoch statistic
/// is reduced over the epochs of a run.
pub fn midmean(v: &[f64]) -> f64 {
    let s = sorted(v);
    assert!(!s.is_empty(), "midmean of no samples");
    let middle = &s[s.len() / 4..s.len() - s.len() / 4];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Median as the mean of the two middle samples for even counts.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    assert!(!s.is_empty(), "median of no samples");
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n.max(1), p).min(n)
}

/// Highest ladder percentile with at least [`MIN_BEYOND`] of `n` samples
/// beyond it; `None` when even p75 has fewer.
pub fn pick_tail(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Whether `p` is resolved by `n` samples under the [`MIN_BEYOND`] rule.
pub fn tail_resolved(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// Share of samples above `factor ×` the median — how much of a run was
/// spent in stalls the median hides.
pub fn stall_share(v: &[f64], factor: f64) -> f64 {
    let m = median(v);
    v.iter().filter(|&&x| x > factor * m).count() as f64 / v.len() as f64
}

/// Quartiles by the exclusive method of Python's
/// `statistics.quantiles(v, n=4)` — the rule the acceptance runs use.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let mut q = [0.0; 3];
    for (k, out) in q.iter_mut().enumerate() {
        let pos = (k + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *out = s[j - 1] + (s[j] - s[j - 1]) * delta;
    }
    q
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the bounds in `BENCHMARK.json` are derived from.
pub fn iqr_share(v: &[f64]) -> f64 {
    let q = quartiles(v);
    ((q[2] - q[0]) / median(v)).abs()
}

/// Sums of every window of `w` consecutive samples (sliding by one).
pub fn window_sums(v: &[f64], w: usize) -> Vec<f64> {
    if w == 0 || v.len() < w {
        return Vec::new();
    }
    let mut acc: f64 = v[..w].iter().sum();
    let mut out = vec![acc];
    for i in w..v.len() {
        acc += v[i] - v[i - w];
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quiet_percentiles_ignore_the_slower_three_quarters() {
        // 200 samples 1..=200: the quiet set is 1..=50.
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quiet(&v, 50.0), 25.0);
        assert_eq!(quiet(&v, 90.0), 45.0);
        // Whatever happens to the disturbed part changes nothing.
        for x in v.iter_mut().filter(|x| **x > 50.0) {
            *x *= 7.0;
        }
        assert_eq!(quiet(&v, 50.0), 25.0);
        assert_eq!(quiet(&v, 90.0), 45.0);
    }

    #[test]
    fn midmean_drops_the_ends_and_moves_in_proportion() {
        assert_eq!(midmean(&[5.0]), 5.0);
        assert_eq!(midmean(&[1.0, 3.0]), 2.0);
        // Eight epochs: two dropped at either end.
        let mut v = vec![10.0; 8];
        v[0] = 100.0; // one stalled epoch
        v[1] = 7.0; // one lucky one
        assert_eq!(midmean(&v), 10.0);
        // Half the epochs a third faster: halfway, where the median of the
        // same epochs sits on one side or the other of the gap.
        let v = [10.0, 10.0, 10.0, 10.0, 7.5, 7.5, 7.5, 7.5];
        assert_eq!(midmean(&v), 8.75);
        let v = [10.0, 10.0, 10.0, 10.0, 10.0, 7.5, 7.5, 7.5];
        assert_eq!(midmean(&v), 9.375);
        assert_eq!(median(&v), 10.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: exactly 10 lie beyond p90, only 5 beyond p95.
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(pick_tail(100), Some(90.0));
        assert!(tail_resolved(100, 90.0));
        assert!(!tail_resolved(100, 95.0));
        // 99 samples: p90 is rank 90, 9 beyond — falls back to p75.
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(pick_tail(99), Some(75.0));
        // 1000 samples resolve p99 (10 beyond) but not p99.9.
        assert_eq!(pick_tail(1000), Some(99.0));
        assert_eq!(pick_tail(10_000), Some(99.9));
        // Too few for any tail.
        assert_eq!(pick_tail(39), None);
        assert_eq!(pick_tail(40), Some(75.0));
        assert_eq!(pick_tail(0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }

    #[test]
    fn stall_share_counts_outliers_only() {
        let mut v = vec![1.0; 98];
        v.extend([3.5, 10.0]);
        assert!((stall_share(&v, 3.0) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn sliding_windows() {
        assert_eq!(window_sums(&[1.0, 2.0, 3.0, 4.0], 2), [3.0, 5.0, 7.0]);
        assert_eq!(window_sums(&[1.0, 2.0], 3), Vec::<f64>::new());
    }
}
