//! Order statistics for reporting repeated timings.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it, together with
//! the sample count, so a tail figure is never read off a handful of runs.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Candidate tail percentiles in tenths of a percent, highest first.
const TAIL_LADDER: [usize; 4] = [999, 990, 900, 750];

/// The `p`-th percentile (0–100) of `xs` by linear interpolation between
/// closest ranks. `None` for an empty slice or a `p` outside 0–100.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_SAMPLES`] of `n` samples strictly beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n * (1000 - p) >= TAIL_SAMPLES * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Median, sample count, and the reportable tail of one timing series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median sample.
    pub median: f64,
    /// `(percentile, value)` of the reportable tail, when `n` allows one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `xs`; `None` when there are no samples.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        let median = median(xs)?;
        let tail = tail_percentile(xs.len()).and_then(|p| percentile(xs, p).map(|v| (p, v)));
        Some(Summary {
            n: xs.len(),
            median,
            tail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&[0.0, 10.0], 25.0), Some(2.5));
        assert_eq!(percentile(&xs, 0.0), Some(0.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 101.0), None);
        assert_eq!(percentile(&xs, -1.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 39 samples: p75 leaves 9.75 beyond → nothing reportable.
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 0..20_000 {
            if let Some(p) = tail_percentile(n) {
                let beyond = (n as f64) * (1.0 - p / 100.0);
                assert!(beyond + 1e-9 >= TAIL_SAMPLES as f64, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        let (p, v) = s.tail.unwrap();
        assert_eq!(p, 90.0);
        assert!((v - 90.1).abs() < 1e-9);
        assert_eq!(Summary::of(&[1.0, 2.0]).unwrap().tail, None);
        assert_eq!(Summary::of(&[]), None);
    }
}
