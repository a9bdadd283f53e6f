//! Ternary digits and words — the data model of a TCAM.
//!
//! A TCAM cell holds a ternary digit as two bits of state: whether the
//! digit is cared for (definite) and its value. [`TernaryWord`] stores its
//! digits the same way, packed 64 to a mask word: digit `j` (most
//! significant first) is bit `j % 64` of mask word `j / 64`, and each mask
//! word is a `[care, pattern]` pair, `care` set where the digit is definite
//! and `pattern` where it is `1` (a subset of `care`). Bits past the width
//! stay zero. Words of up to 64 digits keep their one mask word inline;
//! wider words keep one boxed slice. The bit-plane kernels of
//! `ftcam-engine` read these masks directly ([`TernaryWord::masks`]).

use std::ops::Range;

/// One ternary digit: `0`, `1`, or don't-care (`X`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ternary {
    /// Binary zero.
    Zero,
    /// Binary one.
    One,
    /// Don't-care: matches both `0` and `1`.
    X,
}

impl Ternary {
    /// Converts a boolean to the corresponding definite digit.
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            Ternary::One
        } else {
            Ternary::Zero
        }
    }

    /// `true` if this digit matches `query` under TCAM semantics: a stored
    /// `X` matches anything, and a query `X` (masked search bit) matches
    /// anything.
    pub fn matches(self, query: Ternary) -> bool {
        match (self, query) {
            (Ternary::X, _) | (_, Ternary::X) => true,
            (a, b) => a == b,
        }
    }

    /// The definite complement; `X` stays `X`.
    pub fn complement(self) -> Self {
        match self {
            Ternary::Zero => Ternary::One,
            Ternary::One => Ternary::Zero,
            Ternary::X => Ternary::X,
        }
    }

    /// Character representation: `'0'`, `'1'` or `'X'`.
    pub fn to_char(self) -> char {
        match self {
            Ternary::Zero => '0',
            Ternary::One => '1',
            Ternary::X => 'X',
        }
    }

    /// Parses `'0'`, `'1'`, `'x'`/`'X'` (or `'*'`).
    pub fn from_char(c: char) -> Option<Self> {
        match c {
            '0' => Some(Ternary::Zero),
            '1' => Some(Ternary::One),
            'x' | 'X' | '*' => Some(Ternary::X),
            _ => None,
        }
    }

    /// The `(care, pattern)` bits of this digit.
    fn mask_bits(self) -> (bool, bool) {
        (self != Ternary::X, self == Ternary::One)
    }
}

impl std::fmt::Display for Ternary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Error returned when parsing a ternary word from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTernaryError {
    /// Byte offset of the offending character.
    pub position: usize,
    /// The character that could not be parsed.
    pub character: char,
}

impl std::fmt::Display for ParseTernaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid ternary digit `{}` at position {}",
            self.character, self.position
        )
    }
}

impl std::error::Error for ParseTernaryError {}

/// Digits per mask word.
const WORD_DIGITS: usize = 64;

/// A fixed-width ternary word (stored entry or search key).
///
/// Index 0 is the most significant (leftmost) digit, matching the way
/// routing prefixes are written. Digit `j` is bit `j % 64` of the
/// `[care, pattern]` mask word `j / 64` ([`TernaryWord::masks`]); a word of
/// up to 64 digits needs no heap allocation.
///
/// # Examples
///
/// ```
/// use ftcam_workloads::{Ternary, TernaryWord};
///
/// let stored: TernaryWord = "10XX".parse()?;
/// let query: TernaryWord = "1011".parse()?;
/// assert!(stored.matches(&query));
/// assert_eq!(stored.mismatch_count(&query), 0);
/// assert_eq!(stored.wildcard_count(), 2);
/// assert_eq!(stored.masks(), [[0b0011, 0b0001]]);
/// # Ok::<(), ftcam_workloads::ParseTernaryError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TernaryWord {
    width: usize,
    masks: Masks,
}

/// The mask words of a [`TernaryWord`]: one inline word up to 64 digits,
/// `width.div_ceil(64)` boxed words beyond. Bits past the width are zero,
/// so the derived `Eq` and `Hash` compare digits.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Masks {
    Narrow([u64; 2]),
    Wide(Box<[[u64; 2]]>),
}

const _: () = assert!(std::mem::size_of::<TernaryWord>() <= 32);

impl TernaryWord {
    /// All-`X` word of the given width (matches everything).
    pub fn all_x(width: usize) -> Self {
        let masks = if width <= WORD_DIGITS {
            Masks::Narrow([0; 2])
        } else {
            Masks::Wide(vec![[0; 2]; width.div_ceil(WORD_DIGITS)].into_boxed_slice())
        };
        Self { width, masks }
    }

    /// All-zero word of the given width.
    pub fn zeros(width: usize) -> Self {
        Self::prefix(0, width, width)
    }

    /// Builds a definite (0/1) word from the low `width` bits of `value`,
    /// most significant bit first. Digits above bit 63 are 0.
    pub fn from_bits(value: u64, width: usize) -> Self {
        Self::prefix(value, width, width)
    }

    /// An IPv4-style prefix: the top `prefix_len` of the low `width` bits
    /// of `value` followed by wildcards, total `width` digits. Digits above
    /// bit 63 are 0.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > width`.
    pub fn prefix(value: u64, prefix_len: usize, width: usize) -> Self {
        assert!(prefix_len <= width, "prefix length exceeds width");
        let mut word = Self::all_x(width);
        // Digit `j` holds bit `width - 1 - j` of `value`, which is bit
        // `j + 64 - width` of the reversed value.
        let reversed = value.reverse_bits();
        for (w, [care, pattern]) in word.masks_mut().iter_mut().enumerate() {
            let first = w * WORD_DIGITS;
            let shift = (first + WORD_DIGITS) as i64 - width as i64;
            let bits = match u32::try_from(shift) {
                Ok(right) => reversed.checked_shr(right),
                Err(_) => u32::try_from(-shift)
                    .ok()
                    .and_then(|left| reversed.checked_shl(left)),
            };
            *care = low_bits(prefix_len.saturating_sub(first));
            *pattern = bits.unwrap_or(0) & *care;
        }
        word
    }

    /// Word width in digits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The `[care, pattern]` mask words, digits `0..64` first: digit `j`
    /// is bit `j % 64` of word `j / 64`, `care` set where it is definite
    /// and `pattern` where it is `1`. There are `width.div_ceil(64)` words
    /// (one for an empty word), and bits past the width are zero.
    #[inline]
    pub fn masks(&self) -> &[[u64; 2]] {
        match &self.masks {
            Masks::Narrow(m) => std::slice::from_ref(m),
            Masks::Wide(m) => m,
        }
    }

    fn masks_mut(&mut self) -> &mut [[u64; 2]] {
        match &mut self.masks {
            Masks::Narrow(m) => std::slice::from_mut(m),
            Masks::Wide(m) => m,
        }
    }

    /// The mask word holding digit `index` and the digit's bit in it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    fn locate(&self, index: usize) -> (usize, u64) {
        assert!(
            index < self.width,
            "digit {index} out of bounds for width {}",
            self.width
        );
        (index / WORD_DIGITS, 1 << (index % WORD_DIGITS))
    }

    /// Mutable access to one digit.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set(&mut self, index: usize, value: Ternary) {
        let (w, bit) = self.locate(index);
        let (care, pattern) = value.mask_bits();
        let m = &mut self.masks_mut()[w];
        m[0] = (m[0] & !bit) | if care { bit } else { 0 };
        m[1] = (m[1] & !bit) | if pattern { bit } else { 0 };
    }

    /// The digit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get(&self, index: usize) -> Ternary {
        let (w, bit) = self.locate(index);
        match self.masks()[w] {
            [care, _] if care & bit == 0 => Ternary::X,
            [_, pattern] => Ternary::from_bit(pattern & bit != 0),
        }
    }

    /// Number of definite (non-`X`) digits.
    pub fn definite_count(&self) -> usize {
        self.masks()
            .iter()
            .map(|[care, _]| care.count_ones() as usize)
            .sum()
    }

    /// Number of `X` digits.
    pub fn wildcard_count(&self) -> usize {
        self.width - self.definite_count()
    }

    /// `true` if this stored word matches the query in every position.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn matches(&self, query: &TernaryWord) -> bool {
        self.mismatch_count(query) == 0
    }

    /// Number of mismatching positions against `query` — the quantity TCAM
    /// search energy depends on (each mismatching cell discharges the match
    /// line).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn mismatch_count(&self, query: &TernaryWord) -> usize {
        self.mismatch_count_in(query, 0..self.width)
    }

    /// Number of mismatching positions against `query` among the digits
    /// `digits` — one segment of a segmented match line.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn mismatch_count_in(&self, query: &TernaryWord, digits: Range<usize>) -> usize {
        assert_eq!(self.width(), query.width(), "width mismatch");
        self.masks()
            .iter()
            .zip(query.masks())
            .enumerate()
            .map(|(w, (&[care, pattern], &[q_care, q_pattern]))| {
                let first = w * WORD_DIGITS;
                let span = low_bits(digits.end.saturating_sub(first))
                    & !low_bits(digits.start.saturating_sub(first));
                (care & q_care & (pattern ^ q_pattern) & span).count_ones() as usize
            })
            .sum()
    }

    /// Search-line pair transitions from driving `prev` to driving this
    /// word as a query: SL is driven high on a definite `1` and SLB on a
    /// definite `0`, and each digit whose `(SL, SLB)` pair changes counts
    /// once. With no previous query, every definite digit charges from the
    /// idle (all-low) state.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn sl_toggles(&self, prev: Option<&TernaryWord>) -> usize {
        let Some(prev) = prev else {
            return self.definite_count();
        };
        assert_eq!(self.width(), prev.width(), "width mismatch");
        self.masks()
            .iter()
            .zip(prev.masks())
            .map(|(&[care, pattern], &[prev_care, prev_pattern])| {
                let sl = (care & pattern) ^ (prev_care & prev_pattern);
                let slb = (care & !pattern) ^ (prev_care & !prev_pattern);
                (sl | slb).count_ones() as usize
            })
            .sum()
    }

    /// Returns a copy with exactly `count` definite digits flipped, chosen
    /// deterministically from the most significant end — used to build
    /// queries at a controlled Hamming distance.
    ///
    /// # Panics
    ///
    /// Panics if the word has fewer than `count` definite digits.
    pub fn with_mismatches(&self, count: usize) -> Self {
        let mut out = self.clone();
        let mut left = count;
        for [care, pattern] in out.masks_mut() {
            let mut definite = *care;
            while left > 0 && definite != 0 {
                let lowest = definite & definite.wrapping_neg();
                *pattern ^= lowest;
                definite ^= lowest;
                left -= 1;
            }
        }
        assert!(
            left == 0,
            "word has only {} definite digits, needed {count}",
            count - left
        );
        out
    }

    /// Returns a copy with `count` definite digits flipped at positions
    /// spread uniformly across the word — position-unbiased, unlike
    /// [`TernaryWord::with_mismatches`] which flips from the front (that
    /// bias matters for segmented match-line designs). `X` digits at those
    /// positions stay `X`.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the width.
    pub fn with_spread_mismatches(&self, count: usize) -> Self {
        let w = self.width();
        assert!(count <= w, "cannot flip {count} of {w} digits");
        let mut out = self.clone();
        for j in 0..count {
            let pos = (j * w / count + w / (2 * count)).min(w - 1);
            let (word, bit) = out.locate(pos);
            let [care, pattern] = &mut out.masks_mut()[word];
            *pattern ^= *care & bit;
        }
        out
    }

    /// Iterates over the digits, most significant first.
    pub fn iter(&self) -> Digits<'_> {
        Digits {
            word: self,
            range: 0..self.width,
        }
    }
}

/// Mask of the low `n` bits (all 64 for `n >= 64`).
#[inline]
fn low_bits(n: usize) -> u64 {
    if n >= WORD_DIGITS {
        !0
    } else {
        (1 << n) - 1
    }
}

/// Iterator over the digits of a [`TernaryWord`], most significant first;
/// see [`TernaryWord::iter`].
#[derive(Debug, Clone)]
pub struct Digits<'a> {
    word: &'a TernaryWord,
    range: Range<usize>,
}

impl Iterator for Digits<'_> {
    type Item = Ternary;

    fn next(&mut self) -> Option<Ternary> {
        self.range.next().map(|i| self.word.get(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl DoubleEndedIterator for Digits<'_> {
    fn next_back(&mut self) -> Option<Ternary> {
        self.range.next_back().map(|i| self.word.get(i))
    }
}

impl ExactSizeIterator for Digits<'_> {}

impl std::fmt::Display for TernaryWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in self {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for TernaryWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TernaryWord")
            .field(&format_args!("{self}"))
            .finish()
    }
}

impl std::str::FromStr for TernaryWord {
    type Err = ParseTernaryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.chars()
            .enumerate()
            .map(|(i, c)| {
                Ternary::from_char(c).ok_or(ParseTernaryError {
                    position: i,
                    character: c,
                })
            })
            .collect()
    }
}

impl FromIterator<Ternary> for TernaryWord {
    fn from_iter<I: IntoIterator<Item = Ternary>>(iter: I) -> Self {
        // Full mask words spill to `done`, which stays unallocated up to
        // 64 digits.
        let mut done: Vec<[u64; 2]> = Vec::new();
        let mut last = [0u64; 2];
        let mut width = 0;
        for d in iter {
            if width > 0 && width % WORD_DIGITS == 0 {
                done.push(std::mem::take(&mut last));
            }
            let (care, pattern) = d.mask_bits();
            let bit = width % WORD_DIGITS;
            last[0] |= u64::from(care) << bit;
            last[1] |= u64::from(pattern) << bit;
            width += 1;
        }
        let masks = if done.is_empty() {
            Masks::Narrow(last)
        } else {
            done.push(last);
            Masks::Wide(done.into_boxed_slice())
        };
        Self { width, masks }
    }
}

impl<'a> IntoIterator for &'a TernaryWord {
    type Item = Ternary;
    type IntoIter = Digits<'a>;

    fn into_iter(self) -> Digits<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_matching_semantics() {
        assert!(Ternary::X.matches(Ternary::One));
        assert!(Ternary::One.matches(Ternary::X));
        assert!(Ternary::One.matches(Ternary::One));
        assert!(!Ternary::One.matches(Ternary::Zero));
    }

    #[test]
    fn parse_and_display_round_trip() {
        let w: TernaryWord = "10X1*x".parse().unwrap();
        assert_eq!(w.to_string(), "10X1XX");
        assert_eq!(format!("{w:?}"), "TernaryWord(10X1XX)");
        assert_eq!(w.width(), 6);
        assert_eq!(w.wildcard_count(), 3);
        assert_eq!(w.masks(), [[0b1011, 0b1001]]);
    }

    #[test]
    fn parse_error_reports_position() {
        let err = "10Z1".parse::<TernaryWord>().unwrap_err();
        assert_eq!(err.position, 2);
        assert_eq!(err.character, 'Z');
    }

    #[test]
    fn from_bits_msb_first() {
        let w = TernaryWord::from_bits(0b1010, 4);
        assert_eq!(w.to_string(), "1010");
        let w = TernaryWord::from_bits(1, 4);
        assert_eq!(w.to_string(), "0001");
    }

    #[test]
    fn words_wider_than_64_bits_read_zeros_above_bit_63() {
        for width in [70, 130] {
            let high = "0".repeat(width - 64);
            let ones = TernaryWord::from_bits(u64::MAX, width);
            assert_eq!(ones.to_string(), format!("{high}{}", "1".repeat(64)));
            let low = TernaryWord::from_bits(0b101, width);
            assert_eq!(low.to_string(), format!("{}101", "0".repeat(width - 3)));
            let prefix = TernaryWord::prefix(u64::MAX, width - 62, width);
            assert_eq!(prefix.to_string(), format!("{high}11{}", "X".repeat(62)));
            assert!(prefix.matches(&ones));
        }
    }

    #[test]
    fn prefix_fills_wildcards() {
        let w = TernaryWord::prefix(0b1100_0000, 3, 8);
        assert_eq!(w.to_string(), "110XXXXX");
        assert!(w.matches(&TernaryWord::from_bits(0b1101_0101, 8)));
        assert!(!w.matches(&TernaryWord::from_bits(0b0101_0101, 8)));
    }

    #[test]
    fn mismatch_count_ignores_wildcards() {
        let stored: TernaryWord = "1X0X".parse().unwrap();
        let q: TernaryWord = "1111".parse().unwrap();
        assert_eq!(stored.mismatch_count(&q), 1);
        let q0: TernaryWord = "0011".parse().unwrap();
        assert_eq!(stored.mismatch_count(&q0), 2);
        assert_eq!(stored.mismatch_count_in(&q0, 0..1), 1);
        assert_eq!(stored.mismatch_count_in(&q0, 1..4), 1);
    }

    #[test]
    fn with_mismatches_controls_hamming_distance() {
        let stored: TernaryWord = "1010_1010".replace('_', "").parse().unwrap();
        for k in 0..=8 {
            let q = stored.with_mismatches(k);
            assert_eq!(stored.mismatch_count(&q), k);
        }
    }

    #[test]
    #[should_panic(expected = "definite digits")]
    fn with_mismatches_rejects_too_many() {
        let stored: TernaryWord = "1XXX".parse().unwrap();
        let _ = stored.with_mismatches(2);
    }

    #[test]
    fn masked_query_matches_everything() {
        let stored: TernaryWord = "1010".parse().unwrap();
        let q = TernaryWord::all_x(4);
        assert!(stored.matches(&q));
    }

    #[test]
    fn sl_toggles_count_changed_drive_pairs() {
        let a: TernaryWord = "10X1".parse().unwrap();
        let b: TernaryWord = "1X01".parse().unwrap();
        assert_eq!(a.sl_toggles(None), 3);
        assert_eq!(b.sl_toggles(Some(&a)), 2);
        assert_eq!(b.sl_toggles(Some(&b)), 0);
    }
}
