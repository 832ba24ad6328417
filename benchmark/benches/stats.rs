//! Sample statistics: median, percentiles, and the rule for which
//! percentile a sample can support.

/// Sorted copy of `values` (NaNs sort last and never occur in timings).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median (mean of the two middle values for an even count); 0 for
/// an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `p`-th percentile (0 ≤ p ≤ 100; 0 is the minimum, 100 the
/// maximum) by the nearest-rank rule: the
/// smallest sample with at least `p` % of the sample at or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Candidate tail percentiles, highest first, each with the share of
/// the sample beyond it in parts per thousand (integers, so that 10 000
/// samples support p99.9 exactly).
const TAILS: [(f64, usize); 4] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)];

/// The highest of p99.9 / p99 / p95 / p90 that has at least ten samples
/// beyond it, or `None` when the sample supports none (fewer than 100
/// samples): a tail read off fewer than ten samples is noise.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|(_, beyond_per_mille)| n * beyond_per_mille >= 10 * 1_000)
        .map(|(p, _)| p)
}

/// The quartile spread the acceptance rule uses: (Q3 − Q1) ÷ median,
/// with quartiles as Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) gives them. Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |i: usize| {
        // Exclusive method: position i·(n+1)/4, 1-based, clamped.
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    if med == 0.0 {
        0.0
    } else {
        (quantile(3) - quantile(1)) / med
    }
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better). `higher_is_better` flips the sign.
pub fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let rel = (second - first) / first;
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 99 samples: 10 % of them is 9.9 — not yet ten beyond p90.
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(10.0, 11.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, true) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, true) - 0.1).abs() < 1e-12);
    }
}
