//! Packed (bitwise) query representation.
//!
//! A ternary query of `W` digits packs into two compact bitmasks, 64 digits
//! to a word: `care` (digit is definite) and `pattern` (digit is `1`). The
//! column kernels walk the definite digits with [`PackedQuery::definite_from`],
//! which turns each compact pattern bit into the all-zeros or all-ones mask
//! the 64-row plane logic consumes, so the inner match loop is pure `u64`
//! logic with no per-digit branching and skips `X` columns outright.

use ftcam_workloads::{Ternary, TernaryWord};

/// A query word packed for the bit-plane kernels.
///
/// Digit `j` (most significant first, matching [`TernaryWord`] indexing)
/// lands in word `j / 64`, bit `j % 64` of the compact masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedQuery {
    width: usize,
    /// Compact `[care, pattern]` mask words: `care` has a bit set where the
    /// digit is definite (not `X`), `pattern` where it is `1` (a subset of
    /// `care`).
    masks: Vec<[u64; 2]>,
}

impl PackedQuery {
    /// Packs a ternary word.
    pub fn from_word(word: &TernaryWord) -> Self {
        let masks = word
            .digits()
            .chunks(64)
            .map(|chunk| {
                chunk.iter().enumerate().fold([0u64; 2], |[c, p], (b, &d)| {
                    [
                        c | (u64::from(d != Ternary::X) << b),
                        p | (u64::from(d == Ternary::One) << b),
                    ]
                })
            })
            .collect();
        Self {
            width: word.width(),
            masks,
        }
    }

    /// Query width in digits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of definite (non-`X`) digits.
    pub fn definite_count(&self) -> u32 {
        self.masks.iter().map(|[c, _]| c.count_ones()).sum()
    }

    /// Broadcast care mask for column `col`: `!0` if the digit is definite,
    /// `0` for an `X`.
    #[inline]
    pub fn care_mask(&self, col: usize) -> u64 {
        broadcast(self.masks[col / 64][0], col % 64)
    }

    /// Broadcast pattern mask for column `col`: `!0` for a definite `1`,
    /// `0` otherwise.
    #[inline]
    pub fn pattern_mask(&self, col: usize) -> u64 {
        broadcast(self.masks[col / 64][1], col % 64)
    }

    /// The definite columns from column `from` on, ascending, each with its
    /// broadcast pattern mask; `X` columns are skipped.
    #[inline]
    pub(crate) fn definite_from(&self, from: usize) -> DefiniteColumns<'_> {
        let word = from / 64;
        let bits = self
            .masks
            .get(word)
            .map_or(0, |[c, _]| c & (!0u64 << (from % 64)));
        DefiniteColumns {
            masks: &self.masks,
            word,
            bits,
        }
    }

    /// Search-line pair transitions against the previous query of a stream,
    /// matching [`ftcam_workloads::ToggleStats`] semantics exactly: each
    /// digit whose `(SL, SLB)` drive pair changed counts once, and the
    /// first query of a stream charges every definite digit from the idle
    /// (all-low) state.
    pub fn toggles_from(&self, prev: Option<&PackedQuery>) -> u32 {
        let Some(prev) = prev else {
            return self.definite_count();
        };
        debug_assert_eq!(self.width, prev.width);
        self.masks
            .iter()
            .zip(&prev.masks)
            .map(|(&[care, pattern], &[prev_care, prev_pattern])| {
                // SL is driven high on a definite 1, SLB on a definite 0.
                let sl = (care & pattern) ^ (prev_care & prev_pattern);
                let slb = (care & !pattern) ^ (prev_care & !prev_pattern);
                (sl | slb).count_ones()
            })
            .sum()
    }

    /// The value of the top `k` digits (most significant first), or `None`
    /// if any of them is `X` — the prefix-stride index key. `k` is at most
    /// 64 and the width.
    pub fn top_value(&self, k: usize) -> Option<usize> {
        debug_assert!(k <= self.width.min(64));
        if k == 0 {
            return Some(0);
        }
        let low = !0u64 >> (64 - k);
        let [care, pattern] = self.masks[0];
        // Digit 0 sits in bit 0, so the key is the low `k` bits reversed.
        (care & low == low).then(|| ((pattern & low).reverse_bits() >> (64 - k)) as usize)
    }
}

/// `!0` if bit `bit` of `word` is set, else `0`.
#[inline]
fn broadcast(word: u64, bit: usize) -> u64 {
    0u64.wrapping_sub((word >> bit) & 1)
}

/// Iterator over a query's definite columns: yields `(column, pattern
/// mask)` in ascending column order. See [`PackedQuery::definite_from`].
#[derive(Debug, Clone)]
pub(crate) struct DefiniteColumns<'a> {
    masks: &'a [[u64; 2]],
    /// Mask word holding the columns `bits` still lists.
    word: usize,
    /// Care bits of `word` not yet yielded.
    bits: u64,
}

impl Iterator for DefiniteColumns<'_> {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = self.masks.get(self.word)?[0];
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        let pattern = broadcast(self.masks[self.word][1], bit);
        Some((self.word * 64 + bit, pattern))
    }
}

impl From<&TernaryWord> for PackedQuery {
    fn from(word: &TernaryWord) -> Self {
        Self::from_word(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcam_workloads::ToggleStats;

    #[test]
    fn packing_round_trips_digit_semantics() {
        let w: TernaryWord = "10X1".parse().unwrap();
        let q = PackedQuery::from_word(&w);
        assert_eq!(q.width(), 4);
        assert_eq!(q.definite_count(), 3);
        let masks: Vec<(u64, u64)> = (0..4)
            .map(|j| (q.care_mask(j), q.pattern_mask(j)))
            .collect();
        assert_eq!(masks, [(!0, !0), (!0, 0), (0, 0), (!0, !0)]);
        let definite: Vec<(usize, u64)> = q.definite_from(0).collect();
        assert_eq!(definite, [(0, !0), (1, 0), (3, !0)]);
        assert_eq!(q.definite_from(2).collect::<Vec<_>>(), [(3, !0)]);
        assert_eq!(q.definite_from(4).next(), None);
    }

    #[test]
    fn wide_words_span_multiple_mask_words() {
        let mut digits = vec![Ternary::Zero; 130];
        digits[0] = Ternary::One;
        digits[70] = Ternary::One;
        digits[99] = Ternary::X;
        for d in &mut digits[64..70] {
            *d = Ternary::X;
        }
        let q = PackedQuery::from_word(&TernaryWord::new(digits));
        assert_eq!(q.definite_count(), 123);
        assert_eq!((q.care_mask(70), q.pattern_mask(70)), (!0, !0));
        assert_eq!((q.care_mask(71), q.pattern_mask(71)), (!0, 0));
        assert_eq!((q.care_mask(99), q.pattern_mask(99)), (0, 0));
        assert_eq!(q.care_mask(129), !0);
        // Starting inside the X run of word 1 resumes at column 70.
        assert_eq!(q.definite_from(60).nth(4), Some((70, !0)));
        assert_eq!(
            q.definite_from(128).collect::<Vec<_>>(),
            [(128, 0), (129, 0)]
        );
        assert_eq!(q.definite_from(0).count(), 123);
    }

    #[test]
    fn toggles_match_golden_toggle_stats() {
        let stream: Vec<TernaryWord> = ["1010", "1010", "0110", "XX10", "1111"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let golden = ToggleStats::from_queries(&stream);
        let mut total = 0u64;
        let mut prev: Option<PackedQuery> = None;
        for w in &stream {
            let q = PackedQuery::from_word(w);
            total += u64::from(q.toggles_from(prev.as_ref()));
            prev = Some(q);
        }
        let expect = golden.transitions_per_search() * stream.len() as f64;
        assert_eq!(total as f64, expect);
    }

    #[test]
    fn top_value_extracts_msb_prefix() {
        let q = PackedQuery::from_word(&"1011X".parse().unwrap());
        assert_eq!(q.top_value(0), Some(0));
        assert_eq!(q.top_value(2), Some(0b10));
        assert_eq!(q.top_value(4), Some(0b1011));
        assert_eq!(q.top_value(5), None);
        let q = PackedQuery::from_word(&TernaryWord::from_bits(0x8000_0000_0000_0001, 64));
        assert_eq!(q.top_value(64), Some(0x8000_0000_0000_0001));
        assert_eq!(q.top_value(1), Some(1));
    }
}
