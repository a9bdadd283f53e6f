//! Order statistics for timing samples.

/// Tail percentiles considered by [`highest_percentile`], highest first.
const TAIL_CANDIDATES: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples that must lie beyond a reported tail percentile.
const MIN_SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (`0 ≤ p ≤ 100`) by linear interpolation between
/// closest ranks, or `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The median, or `None` for an empty sample.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Whether `n` samples leave at least [`MIN_SAMPLES_BEYOND`] samples
/// above the `p`-th percentile.
fn percentile_is_supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= MIN_SAMPLES_BEYOND as f64 - 1e-9
}

/// The highest tail percentile that `n` samples support, if any: the
/// percentile to report beside the median.
pub fn highest_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| percentile_is_supported(n, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(99), None);
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1000), Some(99.0));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert!(percentile_is_supported(100, 90.0));
        assert!(!percentile_is_supported(99, 90.0));
        assert!(percentile_is_supported(20, 50.0));
    }
}
