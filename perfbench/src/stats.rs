//! Order statistics over timing samples.
//!
//! Percentiles use the nearest-rank rule: the `q`-quantile of `n` sorted
//! samples is the sample at rank `ceil(q·n)`. A percentile is only reported
//! when at least [`MIN_BEYOND`] samples lie beyond it; otherwise the tail
//! reading would be one or two outliers, not a property of the system.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Rank (1-based) of the nearest-rank `q`-quantile among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples put at least [`MIN_BEYOND`] beyond the `q`-quantile.
pub fn supports(q: f64, n: usize) -> bool {
    n > 0 && n - rank(q, n) >= MIN_BEYOND
}

/// The highest of p99.9, p99, p90 and p50 that `n` samples support, or
/// `None` when even the median has fewer than ten samples beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&q| supports(q, n))
}

/// The nearest-rank `q`-quantile of `sorted` (ascending). `NaN` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(q, sorted.len()) - 1]
}

/// A timing distribution: the median and the 99th percentile, falling back
/// to the highest supported percentile when there are too few samples for
/// p99 (the fallback is reported in `tail_q` so the caller can flag it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail reading: p99 when supported.
    pub tail: f64,
    /// Which quantile `tail` is.
    pub tail_q: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let tail_q = if supports(0.99, n) {
            0.99
        } else {
            highest_supported(n).unwrap_or(0.5)
        };
        Some(Summary {
            n,
            p50: quantile(&s, 0.5),
            tail: quantile(&s, tail_q),
            tail_q,
            mean: s.iter().sum::<f64>() / n as f64,
        })
    }
}

/// Median of `values` (the lower middle sample for even counts, as
/// nearest-rank gives). `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// Element-wise minimum over the common prefix of `runs`: for work that
/// is replayed identically in each run, the least-disturbed cost of each
/// item.
pub fn min_across(runs: &[&[f64]]) -> Vec<f64> {
    let n = runs.iter().map(|r| r.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| runs.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 is rank 990, ten beyond.
        assert!(supports(0.99, 1000));
        assert!(!supports(0.99, 999));
        assert!(!supports(0.999, 9_999));
        assert!(supports(0.999, 10_000));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn summary_falls_back_below_a_thousand_samples() {
        let big: Vec<f64> = (0..2000).map(f64::from).collect();
        let s = Summary::of(&big).expect("non-empty");
        assert_eq!(s.tail_q, 0.99);
        assert_eq!(s.tail, 1979.0);
        assert_eq!(s.p50, 999.0);
        let small: Vec<f64> = (0..500).rev().map(f64::from).collect();
        let s = Summary::of(&small).expect("non-empty");
        assert_eq!(s.tail_q, 0.9);
        assert_eq!(s.tail, 449.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn min_across_takes_each_items_least_cost() {
        let a = [3.0, 1.0, 5.0, 9.0];
        let b = [2.0, 4.0, 5.0];
        assert_eq!(min_across(&[&a, &b]), vec![2.0, 1.0, 5.0]);
        assert!(min_across(&[]).is_empty());
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
