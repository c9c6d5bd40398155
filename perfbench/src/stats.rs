//! Order statistics for latency samples.

/// Percentiles the tail search tries, highest first.
pub const LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p)]
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Integer hundredths of a percent, so 99.99 % of 100 000 is
    // exactly rank 99 990 (float rounding would push it to 99 991).
    let hundredths = (p * 100.0).round() as u128;
    let r = (hundredths * n as u128).div_ceil(10_000) as usize;
    r.clamp(1, n) - 1
}

/// The highest percentile in [`LADDER`] that has at least ten samples
/// beyond it, or `None` for fewer than eleven samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= 10)
}

/// Interquartile mean of an ascending slice: the mean of its middle
/// half (ranks n/4 up to n - n/4). Unlike the median it moves smoothly
/// when the samples have modes on both sides of the middle.
pub fn interquartile_mean(sorted: &[u64]) -> f64 {
    assert!(!sorted.is_empty(), "interquartile mean of no samples");
    let q = sorted.len() / 4;
    let mid = &sorted[q..sorted.len() - q];
    mid.iter().map(|&x| x as f64).sum::<f64>() / mid.len() as f64
}

/// Median of unsorted floats (mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no values");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Latency summary of one sample set.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    /// Interquartile mean.
    pub iqm: f64,
    /// Highest percentile with ten samples beyond it, and its value.
    pub tail: Option<(f64, u64)>,
}

impl Summary {
    /// Summarize `samples` (sorted in place); `None` when empty.
    pub fn of(samples: &mut [u64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        Some(Summary {
            n: samples.len(),
            p50: percentile(samples, 50.0),
            p95: percentile(samples, 95.0),
            p99: percentile(samples, 99.0),
            iqm: interquartile_mean(samples),
            tail: tail_percentile(samples.len()).map(|p| (p, percentile(samples, p))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 11 samples: the median has 5 beyond it, so nothing qualifies.
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        // p90 of 100 is rank 90: exactly 10 beyond.
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        // p99 of 1000 is rank 990: 10 beyond.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(0), None);
        for n in [21usize, 150, 1234, 54_321] {
            let p = tail_percentile(n).unwrap();
            assert!(n - 1 - rank(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn interquartile_mean_ignores_both_quarters() {
        assert_eq!(interquartile_mean(&[5]), 5.0);
        assert_eq!(interquartile_mean(&[1, 2, 3, 1000]), 2.5);
        // Two modes meeting at the middle: the median sits on one of
        // them, the interquartile mean between.
        let mut v = vec![8u64; 51];
        v.extend([14u64; 49]);
        assert_eq!(percentile(&v, 50.0), 8);
        assert_eq!(interquartile_mean(&v), (26.0 * 8.0 + 24.0 * 14.0) / 50.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn summary_sorts_and_reports() {
        let mut v: Vec<u64> = (0..2000).rev().collect();
        let s = Summary::of(&mut v).unwrap();
        assert_eq!((s.n, s.p50, s.p95, s.p99), (2000, 999, 1899, 1979));
        assert_eq!(s.iqm, 999.5);
        assert_eq!(s.tail, Some((99.0, 1979)));
        assert!(Summary::of(&mut []).is_none());
    }
}
