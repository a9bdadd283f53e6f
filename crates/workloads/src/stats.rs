//! Workload statistics consumed by the energy models.

use crate::ternary::TernaryWord;

/// Histogram of per-(query, row) mismatch counts.
///
/// In a NOR-type TCAM the match-line discharge energy of a row depends on
/// how many of its cells mismatch the query, so this histogram is the
/// sufficient statistic for array search energy under a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MismatchHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl MismatchHistogram {
    /// Creates an empty histogram for words of `width` digits.
    pub fn new(width: usize) -> Self {
        Self {
            counts: vec![0; width + 1],
            total: 0,
        }
    }

    /// Records one (query, row) pair with the given mismatch count.
    ///
    /// # Panics
    ///
    /// Panics if `mismatches` exceeds the word width.
    pub fn record(&mut self, mismatches: usize) {
        self.counts[mismatches] += 1;
        self.total += 1;
    }

    /// Number of recorded pairs.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bin counts; index = number of mismatching cells.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Fraction of pairs with exactly `k` mismatches.
    pub fn fraction(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts.get(k).copied().unwrap_or(0) as f64 / self.total as f64
    }

    /// Fraction of pairs that fully match (`k = 0`).
    pub fn match_fraction(&self) -> f64 {
        self.fraction(0)
    }

    /// Mean mismatch count.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(k, &c)| k as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }

    /// Fraction of pairs with at least one mismatch in the first
    /// `segment_width` digits — drives the segmented-ML early-termination
    /// model (those rows never evaluate later segments).
    ///
    /// This is an approximation assuming mismatches are spread uniformly; an
    /// exact per-segment histogram can be built by recording segment-sliced
    /// counts instead.
    pub fn early_mismatch_fraction(&self, segment_width: usize, word_width: usize) -> f64 {
        if self.total == 0 || word_width == 0 {
            return 0.0;
        }
        let ratio = segment_width as f64 / word_width as f64;
        let mut acc = 0.0;
        for (k, &c) in self.counts.iter().enumerate() {
            // P(no mismatch lands in the segment | k mismatches) ≈ (1−r)^k.
            let p_early = 1.0 - (1.0 - ratio).powi(k as i32);
            acc += p_early * c as f64;
        }
        acc / self.total as f64
    }
}

/// Per-bit search-line toggle statistics over a query stream.
///
/// A conventional TCAM returns all SLs to zero between searches, so every
/// definite query bit costs one SL charge per search. A search-line-gated
/// design (EA-SLG) leaves SLs static and only pays when consecutive queries
/// differ; the relevant statistic is the average number of SL transitions
/// per search, which this type measures.
#[derive(Debug, Clone, PartialEq)]
pub struct ToggleStats {
    width: usize,
    searches: u64,
    /// SL-pair level transitions between consecutive queries.
    transitions: u64,
    /// Definite (non-X) digits summed over all queries.
    definite_digits: u64,
}

impl ToggleStats {
    /// Computes toggle statistics from a query stream.
    pub fn from_queries(queries: &[TernaryWord]) -> Self {
        let width = queries.first().map_or(0, TernaryWord::width);
        let mut transitions = 0u64;
        let mut definite = 0u64;
        let mut prev = None;
        for q in queries {
            definite += q.definite_count() as u64;
            // The first query charges every definite digit from the idle
            // (all-low) state.
            transitions += q.sl_toggles(prev) as u64;
            prev = Some(q);
        }
        Self {
            width,
            searches: queries.len() as u64,
            transitions,
            definite_digits: definite,
        }
    }

    /// Average SL-pair transitions per search (the EA-SLG cost driver).
    pub fn transitions_per_search(&self) -> f64 {
        if self.searches == 0 {
            return 0.0;
        }
        self.transitions as f64 / self.searches as f64
    }

    /// Average definite digits per search (the conventional SL cost driver:
    /// each costs a charge + discharge when SLs return to zero).
    pub fn definite_digits_per_search(&self) -> f64 {
        if self.searches == 0 {
            return 0.0;
        }
        self.definite_digits as f64 / self.searches as f64
    }

    /// Ratio of gated to conventional SL switching activity, in `[0, ~1]`.
    pub fn gating_activity_ratio(&self) -> f64 {
        let conventional = self.definite_digits_per_search();
        if conventional == 0.0 {
            return 0.0;
        }
        self.transitions_per_search() / conventional
    }

    /// Query width.
    pub fn width(&self) -> usize {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_fractions_and_mean() {
        let mut h = MismatchHistogram::new(4);
        h.record(0);
        h.record(2);
        h.record(2);
        h.record(4);
        assert_eq!(h.total(), 4);
        assert!((h.match_fraction() - 0.25).abs() < 1e-12);
        assert!((h.fraction(2) - 0.5).abs() < 1e-12);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn early_mismatch_fraction_bounds() {
        let mut h = MismatchHistogram::new(8);
        h.record(0); // never early-terminates
        h.record(8); // always has an early mismatch
                     // k = 0 contributes 0; k = 8 contributes 1 − 0.75⁸ ≈ 0.9 → ≈ 0.45.
        let f = h.early_mismatch_fraction(2, 8);
        assert!(f > 0.40 && f < 0.50, "f = {f}");
        // Full-width segment: every mismatching pair terminates "early".
        let f_full = h.early_mismatch_fraction(8, 8);
        assert!((f_full - 0.5).abs() < 1e-9);
    }

    #[test]
    fn toggle_stats_static_stream_has_few_transitions() {
        let q: TernaryWord = "1010".parse().unwrap();
        let stream = vec![q.clone(), q.clone(), q.clone()];
        let t = ToggleStats::from_queries(&stream);
        // Only the initial charge; repeats are free under gating.
        assert!((t.transitions_per_search() - 4.0 / 3.0).abs() < 1e-12);
        assert!((t.definite_digits_per_search() - 4.0).abs() < 1e-12);
        assert!(t.gating_activity_ratio() < 0.5);
    }

    #[test]
    fn toggle_stats_alternating_stream_pays_full() {
        let a: TernaryWord = "1111".parse().unwrap();
        let b: TernaryWord = "0000".parse().unwrap();
        let stream = vec![a.clone(), b.clone(), a, b];
        let t = ToggleStats::from_queries(&stream);
        // Each change flips both SL and SLB of every digit... at pair level
        // counted once per digit.
        assert!(t.transitions_per_search() >= 3.0);
    }

    #[test]
    fn empty_stream_is_all_zero() {
        let t = ToggleStats::from_queries(&[]);
        assert_eq!(t.transitions_per_search(), 0.0);
        assert_eq!(t.gating_activity_ratio(), 0.0);
    }
}
