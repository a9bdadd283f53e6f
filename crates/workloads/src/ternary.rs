//! Ternary digits and words — the data model of a TCAM.

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

/// A fixed-width ternary word (stored entry or search key).
///
/// Index 0 is the most significant (leftmost) digit, matching the way
/// routing prefixes are written.
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
/// # Ok::<(), ftcam_workloads::ParseTernaryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TernaryWord {
    digits: Vec<Ternary>,
}

impl TernaryWord {
    /// Creates a word from digits.
    pub fn new(digits: Vec<Ternary>) -> Self {
        Self { digits }
    }

    /// All-`X` word of the given width (matches everything).
    pub fn all_x(width: usize) -> Self {
        Self {
            digits: vec![Ternary::X; width],
        }
    }

    /// All-zero word of the given width.
    pub fn zeros(width: usize) -> Self {
        Self {
            digits: vec![Ternary::Zero; width],
        }
    }

    /// Builds a definite (0/1) word from the low `width` bits of `value`,
    /// most significant bit first.
    pub fn from_bits(value: u64, width: usize) -> Self {
        let digits = (0..width)
            .rev()
            .map(|i| Ternary::from_bit(value >> i & 1 == 1))
            .collect();
        Self { digits }
    }

    /// An IPv4-style prefix: the top `prefix_len` bits of `value` followed by
    /// wildcards, total `width` digits.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > width`.
    pub fn prefix(value: u64, prefix_len: usize, width: usize) -> Self {
        assert!(prefix_len <= width, "prefix length exceeds width");
        let mut digits = Vec::with_capacity(width);
        for i in 0..prefix_len {
            let bit = value >> (width - 1 - i) & 1 == 1;
            digits.push(Ternary::from_bit(bit));
        }
        digits.resize(width, Ternary::X);
        Self { digits }
    }

    /// Word width in digits.
    pub fn width(&self) -> usize {
        self.digits.len()
    }

    /// The digits, most significant first.
    pub fn digits(&self) -> &[Ternary] {
        &self.digits
    }

    /// Mutable access to one digit.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn set(&mut self, index: usize, value: Ternary) {
        self.digits[index] = value;
    }

    /// The digit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn get(&self, index: usize) -> Ternary {
        self.digits[index]
    }

    /// Number of `X` digits.
    pub fn wildcard_count(&self) -> usize {
        self.digits.iter().filter(|d| **d == Ternary::X).count()
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
        assert_eq!(self.width(), query.width(), "width mismatch");
        self.digits
            .iter()
            .zip(query.digits.iter())
            .filter(|(s, q)| !s.matches(**q))
            .count()
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
        let mut flipped = 0;
        for i in 0..out.digits.len() {
            if flipped == count {
                break;
            }
            if out.digits[i] != Ternary::X {
                out.digits[i] = out.digits[i].complement();
                flipped += 1;
            }
        }
        assert!(
            flipped == count,
            "word has only {flipped} definite digits, needed {count}"
        );
        out
    }

    /// Returns a copy with `count` definite digits flipped at positions
    /// spread uniformly across the word — position-unbiased, unlike
    /// [`TernaryWord::with_mismatches`] which flips from the front (that
    /// bias matters for segmented match-line designs).
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the width.
    pub fn with_spread_mismatches(&self, count: usize) -> Self {
        let w = self.width();
        assert!(count <= w, "cannot flip {count} of {w} digits");
        let mut out = self.clone();
        if count == 0 {
            return out;
        }
        for j in 0..count {
            let pos = (j * w / count + w / (2 * count)).min(w - 1);
            out.digits[pos] = out.digits[pos].complement();
        }
        out
    }

    /// Iterates over the digits.
    pub fn iter(&self) -> std::slice::Iter<'_, Ternary> {
        self.digits.iter()
    }
}

impl std::fmt::Display for TernaryWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.digits {
            write!(f, "{d}")?;
        }
        Ok(())
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
            .collect::<Result<Vec<_>, _>>()
            .map(TernaryWord::new)
    }
}

impl FromIterator<Ternary> for TernaryWord {
    fn from_iter<I: IntoIterator<Item = Ternary>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a TernaryWord {
    type Item = &'a Ternary;
    type IntoIter = std::slice::Iter<'a, Ternary>;

    fn into_iter(self) -> Self::IntoIter {
        self.digits.iter()
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
        assert_eq!(w.width(), 6);
        assert_eq!(w.wildcard_count(), 3);
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
}
