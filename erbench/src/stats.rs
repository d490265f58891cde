//! Order statistics over the latencies and completion times of a phase.

/// Slices a measured phase is cut into; throughput is the median slice's.
pub const SLICES: usize = 5;

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First, second and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (its default, exclusive
/// method), which is how the acceptance pipeline computes a spread. Needs two
/// values or more.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles of fewer than two values");
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The tail to report: the highest of p99, p95 and p90 that still has at
/// least ten samples beyond it, as `(percentile, value)`. With fewer than 100
/// samples none qualifies and the result is `None`.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    [99.0, 95.0, 90.0].into_iter().find_map(|p| {
        let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
        (sorted.len() - rank.min(sorted.len()) >= 10).then(|| (p, percentile(sorted, p)))
    })
}

/// Throughput of a closed-loop stream as the median over [`SLICES`]
/// equal-count slices, so that one slow burst moves one slice and not the
/// result. `done` holds the ascending completion times in seconds of the
/// counted operations, `start` the time the phase began. Each slice's rate is
/// its count over the time from the previous slice's last completion to its
/// own, which charges uncounted work in between (other operation classes, a
/// checkpoint) to the slice it delayed.
pub fn slice_median_rate(start: f64, done: &[f64]) -> f64 {
    assert!(!done.is_empty(), "throughput of no operations");
    let slices = SLICES.min(done.len());
    let mut rates = Vec::with_capacity(slices);
    let mut from = (0, start);
    for s in 1..=slices {
        let to = s * done.len() / slices;
        let end = done[to - 1];
        rates.push((to - from.0) as f64 / (end - from.1).max(1e-9));
        from = (to, end);
    }
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 3], n=4)
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let n = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&n(99)), None);
        assert_eq!(tail(&n(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&n(199)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&n(200)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&n(999)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&n(1000)), Some((99.0, 989.0)));
    }

    #[test]
    fn one_stalled_slice_does_not_move_the_rate() {
        // 100 ops at 10/s, with a two-second stall inside the third slice.
        let done: Vec<f64> = (1..=100)
            .map(|i| i as f64 * 0.1 + if i > 50 { 2.0 } else { 0.0 })
            .collect();
        let rate = slice_median_rate(0.0, &done);
        assert!((rate - 10.0).abs() < 1e-6, "median slice rate {rate}");
        // The plain mean would have said 100 / 12 s.
        assert!(100.0 / done[99] < 9.0);
    }

    #[test]
    fn geomean_weighs_ratios_not_sizes() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
