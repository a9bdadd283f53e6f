//! Query-side views of a ternary word for the column kernels.
//!
//! A [`TernaryWord`] already stores its digits as compact `[care, pattern]`
//! masks, 64 digits to a mask word ([`TernaryWord::masks`]), so the kernels
//! read the query's masks in place. They walk the
//! definite digits with [`definite_from`], which turns each compact pattern
//! bit into the all-zeros or all-ones mask the 64-row plane logic consumes,
//! so the inner match loop is pure `u64` logic with no per-digit branching
//! and skips `X` columns outright. The prefix index keys rows and queries
//! by their top digits through [`top_key`].

use ftcam_workloads::TernaryWord;

/// The definite columns of the mask words `masks` from column `from` on,
/// ascending, each with its broadcast pattern mask; `X` columns are
/// skipped.
#[inline]
pub(crate) fn definite_from(masks: &[[u64; 2]], from: usize) -> DefiniteColumns<'_> {
    let word = from / 64;
    let [care, pattern] = masks.get(word).copied().unwrap_or_default();
    DefiniteColumns {
        masks,
        word,
        bits: care & (!0u64 << (from % 64)),
        pattern,
    }
}

/// The top `k` digits of `word` (most significant first) as a `k`-bit key,
/// an `X` digit reading 0, and the mask of the key bits whose digit is `X`
/// — the prefix-stride index key. `k` is at most 64 and the width.
#[inline]
pub(crate) fn top_key(word: &TernaryWord, k: usize) -> (usize, usize) {
    debug_assert!(k <= word.width().min(64));
    if k == 0 {
        return (0, 0);
    }
    let low = !0u64 >> (64 - k);
    let [care, pattern] = word.masks()[0];
    // Digit 0 sits in bit 0, so the key is the low `k` bits reversed.
    let key = |bits: u64| ((bits & low).reverse_bits() >> (64 - k)) as usize;
    (key(pattern), key(!care))
}

/// `!0` if bit `bit` of `word` is set, else `0`.
#[inline]
fn broadcast(word: u64, bit: usize) -> u64 {
    0u64.wrapping_sub((word >> bit) & 1)
}

/// Iterator over a query's definite columns: yields `(column, pattern
/// mask)` in ascending column order. See [`definite_from`].
#[derive(Debug, Clone)]
pub(crate) struct DefiniteColumns<'a> {
    /// The query's `[care, pattern]` mask words.
    masks: &'a [[u64; 2]],
    /// Mask word holding the columns `bits` still lists.
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
            [self.bits, self.pattern] = *self.masks.get(self.word + 1)?;
            self.word += 1;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some((self.word * 64 + bit, broadcast(self.pattern, bit)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftcam_workloads::Ternary;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn definite_columns_skip_wildcards() {
        let w: TernaryWord = "10X1".parse().unwrap();
        let definite: Vec<(usize, u64)> = definite_from(w.masks(), 0).collect();
        assert_eq!(definite, [(0, !0), (1, 0), (3, !0)]);
        assert_eq!(definite_from(w.masks(), 2).collect::<Vec<_>>(), [(3, !0)]);
        assert_eq!(definite_from(w.masks(), 4).next(), None);
    }

    #[test]
    fn definite_columns_span_multiple_mask_words() {
        let mut w = TernaryWord::zeros(130);
        w.set(0, Ternary::One);
        w.set(70, Ternary::One);
        w.set(99, Ternary::X);
        for j in 64..70 {
            w.set(j, Ternary::X);
        }
        let q = w.masks();
        // Starting inside the X run of word 1 resumes at column 70.
        assert_eq!(definite_from(q, 60).nth(4), Some((70, !0)));
        assert_eq!(definite_from(q, 70).nth(1), Some((71, 0)));
        assert_eq!(
            definite_from(q, 128).collect::<Vec<_>>(),
            [(128, 0), (129, 0)]
        );
        assert_eq!(definite_from(q, 0).count(), 123);
        assert!(definite_from(q, 0).all(|(j, p)| (p == !0) == (w.get(j) == Ternary::One)));
    }

    #[test]
    fn top_key_extracts_msb_prefix() {
        let q: TernaryWord = "1011X".parse().unwrap();
        assert_eq!(top_key(&q, 0), (0, 0));
        assert_eq!(top_key(&q, 2), (0b10, 0));
        assert_eq!(top_key(&q, 4), (0b1011, 0));
        assert_eq!(top_key(&q, 5), (0b10110, 0b00001));
        let q = TernaryWord::from_bits(0x8000_0000_0000_0001, 64);
        assert_eq!(top_key(&q, 64), (0x8000_0000_0000_0001, 0));
        assert_eq!(top_key(&q, 1), (1, 0));
    }

    /// The top-digit key agrees with the digits at widths around one mask
    /// word and at 130.
    #[test]
    fn top_key_agrees_with_digits_across_mask_words() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x0051_5eed);
        for width in [63, 64, 65, 130] {
            for p_x in [0.0, 0.3, 0.0, 1.0, 0.1] {
                let w: TernaryWord = (0..width)
                    .map(|_| {
                        if rng.gen_bool(p_x) {
                            Ternary::X
                        } else {
                            Ternary::from_bit(rng.gen_bool(0.5))
                        }
                    })
                    .collect();
                for k in 0..=width.min(64) {
                    let top = w.iter().take(k);
                    let expect = top.fold((0usize, 0usize), |(v, x), d| {
                        (
                            v << 1 | usize::from(d == Ternary::One),
                            x << 1 | usize::from(d == Ternary::X),
                        )
                    });
                    assert_eq!(top_key(&w, k), expect, "width {width}, top {k}");
                }
            }
        }
    }
}
