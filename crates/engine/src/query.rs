//! Packed (bitwise) query representation.
//!
//! A ternary query of `W` digits packs into two compact bitmasks, 64 digits
//! to a word: `care` (digit is definite) and `pattern` (digit is `1`). The
//! first word sits inline, so a query of up to 64 digits packs without a
//! heap allocation. The column kernels walk the definite digits with
//! [`PackedQuery::definite_from`], which turns each compact pattern bit
//! into the all-zeros or all-ones mask the 64-row plane logic consumes, so
//! the inner match loop is pure `u64` logic with no per-digit branching
//! and skips `X` columns outright.

use ftcam_workloads::{Ternary, TernaryWord};

/// A query word packed for the bit-plane kernels.
///
/// Digit `j` (most significant first, matching [`TernaryWord`] indexing)
/// lands in word `j / 64`, bit `j % 64` of the compact masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedQuery {
    width: usize,
    /// Compact `[care, pattern]` masks of digits `0..64`: `care` has a bit
    /// set where the digit is definite (not `X`), `pattern` where it is `1`
    /// (a subset of `care`).
    head: [u64; 2],
    /// The same masks for digits `64..`, one word per 64 digits; empty,
    /// and never allocated, for widths up to 64.
    tail: Vec<[u64; 2]>,
}

impl PackedQuery {
    /// Packs a ternary word.
    pub fn from_word(word: &TernaryWord) -> Self {
        let digits = word.digits();
        let (head, rest) = digits.split_at(digits.len().min(64));
        Self {
            width: word.width(),
            head: pack_chunk(head),
            tail: rest.chunks(64).map(pack_chunk).collect(),
        }
    }

    /// The `[care, pattern]` mask words, first digit word first.
    fn words(&self) -> impl Iterator<Item = &[u64; 2]> {
        std::iter::once(&self.head).chain(&self.tail)
    }

    /// Mask word `w` (digits `64 * w..`), if the width reaches it.
    #[inline]
    fn word(&self, w: usize) -> Option<[u64; 2]> {
        match w {
            0 => Some(self.head),
            w => self.tail.get(w - 1).copied(),
        }
    }

    /// The `[care, pattern]` mask word holding column `col`.
    #[inline]
    fn word_of(&self, col: usize) -> [u64; 2] {
        self.word(col / 64).expect("column within the query width")
    }

    /// Query width in digits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of definite (non-`X`) digits.
    pub fn definite_count(&self) -> u32 {
        self.words().map(|[c, _]| c.count_ones()).sum()
    }

    /// Broadcast care mask for column `col`: `!0` if the digit is definite,
    /// `0` for an `X`.
    #[inline]
    pub fn care_mask(&self, col: usize) -> u64 {
        broadcast(self.word_of(col)[0], col % 64)
    }

    /// Broadcast pattern mask for column `col`: `!0` for a definite `1`,
    /// `0` otherwise.
    #[inline]
    pub fn pattern_mask(&self, col: usize) -> u64 {
        broadcast(self.word_of(col)[1], col % 64)
    }

    /// The definite columns from column `from` on, ascending, each with its
    /// broadcast pattern mask; `X` columns are skipped.
    #[inline]
    pub(crate) fn definite_from(&self, from: usize) -> DefiniteColumns<'_> {
        let word = from / 64;
        let [care, pattern] = self.word(word).unwrap_or_default();
        DefiniteColumns {
            tail: &self.tail,
            word,
            bits: care & (!0u64 << (from % 64)),
            pattern,
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
        self.words()
            .zip(prev.words())
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
        let [care, pattern] = self.head;
        // Digit 0 sits in bit 0, so the key is the low `k` bits reversed.
        (care & low == low).then(|| ((pattern & low).reverse_bits() >> (64 - k)) as usize)
    }
}

/// The compact `[care, pattern]` masks of up to 64 digits, digit `b` in
/// bit `b`. Eight digits at a time: their discriminants, one byte each,
/// load as one `u64` (a short last octet is padded with `X`), and a
/// multiply gathers one bit of each byte into eight adjacent bits.
fn pack_chunk(digits: &[Ternary]) -> [u64; 2] {
    let octets = digits.chunks_exact(8);
    let rest = octets.remainder();
    let mut last = [Ternary::X; 8];
    last[..rest.len()].copy_from_slice(rest);
    let last = (!rest.is_empty()).then_some(&last);
    let full = octets.map(|o| <&[Ternary; 8]>::try_from(o).expect("eight digits"));
    let (mut care, mut pattern) = (0u64, 0u64);
    for (i, octet) in full.chain(last).enumerate() {
        let bytes = u64::from_le_bytes(octet.map(|d| d as u8));
        // `X` is the only digit with bit 1 set, `One` the only one with
        // bit 0 set.
        care |= gather_low_bits(!(bytes >> 1)) << (8 * i);
        pattern |= gather_low_bits(bytes) << (8 * i);
    }
    [care, pattern]
}

// `pack_chunk` reads the digits by discriminant.
const _: () = assert!(Ternary::Zero as u8 == 0 && Ternary::One as u8 == 1 && Ternary::X as u8 == 2);

/// Bit 0 of byte `i` of `bytes`, moved to bit `i` of the result.
#[inline]
fn gather_low_bits(bytes: u64) -> u64 {
    // Byte `i`'s bit lands at bit `56 + i`; the other partial products
    // stay below bit 56 or overflow, and none of them overlap.
    ((bytes & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080)) >> 56
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
    /// The query's mask words past the first.
    tail: &'a [[u64; 2]],
    /// Mask word holding the columns `bits` still lists; `tail[word]` is
    /// the next one.
    word: usize,
    /// Care bits of `word` not yet yielded.
    bits: u64,
    /// Pattern bits of `word`.
    pattern: u64,
}

impl Iterator for DefiniteColumns<'_> {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        while self.bits == 0 {
            [self.bits, self.pattern] = *self.tail.get(self.word)?;
            self.word += 1;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.word * 64 + bit, broadcast(self.pattern, bit)))
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
