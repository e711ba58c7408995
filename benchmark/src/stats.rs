//! Order statistics: latency percentiles for the workloads and quartiles
//! for `--compare`.

/// Fewest samples at which p99 has at least ten samples beyond it.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Nearest-rank percentile (`p` in `0..=1`) of an ascending slice.
///
/// # Panics
///
/// On an empty slice: every caller measures at least one sample first.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// p99, only when at least [`P99_MIN_SAMPLES`] samples support it.
pub fn p99(sorted: &[f64]) -> Option<f64> {
    (sorted.len() >= P99_MIN_SAMPLES).then(|| percentile(sorted, 0.99))
}

/// The tail latency reported as `latency_p99_ms`: p99 where the sample
/// supports it, otherwise the slowest sample, which is never below p99.
pub fn tail(sorted: &[f64]) -> f64 {
    p99(sorted).unwrap_or_else(|| *sorted.last().expect("tail of no samples"))
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First quartile, median and third quartile of an ascending slice, with
/// the same interpolation as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method), so spreads match that tool's.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(p99(&ramp(999)), None);
        assert_eq!(p99(&ramp(1000)), Some(990.0));
        assert_eq!(tail(&ramp(999)), 999.0, "below 1000 the maximum stands in");
        assert_eq!(tail(&ramp(2000)), 1980.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(101);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 1.0), 101.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(sorted(&[3.0, 1.0, 2.0]), vec![1.0, 2.0, 3.0]);
    }
}
