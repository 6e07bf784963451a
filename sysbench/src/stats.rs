//! Slice-median arithmetic: every timed metric is a median over slices,
//! never one window (README, noise fact 2).

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method — the one Python's
/// `statistics.quantiles(v, n=4)` uses, so a spread computed here equals
/// the one the accepting driver computes. Needs at least two values.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need two values");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |m: usize| {
        // Position m*(n+1)/4, 1-based, clamped into the data.
        let j = (m * (n + 1) / 4).clamp(1, n - 1);
        let delta = (m * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    (q3 - q1) / median(v)
}

/// Worst pairwise relative deviation `|a - b| / min(a, b)` over `v`,
/// which for positive values is `(max - min) / min`.
pub fn worst_pairwise(v: &[f64]) -> f64 {
    let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if v.len() < 2 || lo <= 0.0 {
        return 0.0;
    }
    (hi - lo) / lo
}

/// Exact `q`-quantile (nearest rank) of latency samples; reorders `v`.
/// Exact rather than bucketed: a bucketed quantile reads identically on
/// every run and moves in 3 % steps, which hides a regression smaller
/// than a step and fakes one at a bucket edge.
pub fn quantile_ns(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    *v.select_nth_unstable(rank).1 as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q3), (10.0, 40.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert_eq!((q1, q3), (0.75, 2.25));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pairwise_deviation_is_range_over_min() {
        assert!((worst_pairwise(&[100.0, 110.0, 105.0]) - 0.10).abs() < 1e-12);
        assert_eq!(worst_pairwise(&[5.0]), 0.0);
    }

    #[test]
    fn exact_quantiles_use_nearest_rank() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile_ns(&mut v, 0.50), 50.0);
        assert_eq!(quantile_ns(&mut v, 0.99), 99.0);
        assert_eq!(quantile_ns(&mut v, 1.0), 100.0);
        assert_eq!(quantile_ns(&mut [], 0.5), 0.0);
    }
}
