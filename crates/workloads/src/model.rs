//! Functional (golden) TCAM model.

use crate::ternary::TernaryWord;

/// A behavioural TCAM: an ordered list of ternary entries with
/// priority-encoded search.
///
/// Row 0 has the highest priority, mirroring hardware priority encoders.
/// This model is the *golden reference* the circuit-level simulation is
/// cross-checked against (every row's electrical match/mismatch outcome
/// must agree with [`TernaryWord::matches`]).
///
/// # Examples
///
/// ```
/// use ftcam_workloads::{TcamTable, TernaryWord};
///
/// // Longest-prefix match via priority ordering (longest prefixes first).
/// let mut table = TcamTable::new(8);
/// table.push("11010XXX".parse()?); // /5
/// table.push("110XXXXX".parse()?); // /3
/// table.push("1XXXXXXX".parse()?); // /1
/// let q = TernaryWord::from_bits(0b1101_0110, 8);
/// assert_eq!(table.search(&q), Some(0));
/// let q2 = TernaryWord::from_bits(0b1100_0000, 8);
/// assert_eq!(table.search(&q2), Some(1));
/// # Ok::<(), ftcam_workloads::ParseTernaryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcamTable {
    width: usize,
    rows: Vec<TernaryWord>,
}

impl TcamTable {
    /// Creates an empty table for words of the given width.
    pub fn new(width: usize) -> Self {
        Self {
            width,
            rows: Vec::new(),
        }
    }

    /// Word width in digits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row at the lowest priority.
    ///
    /// # Panics
    ///
    /// Panics if the word width differs from the table width.
    pub fn push(&mut self, word: TernaryWord) {
        assert_eq!(word.width(), self.width, "row width mismatch");
        self.rows.push(word);
    }

    /// The stored rows in priority order.
    pub fn rows(&self) -> &[TernaryWord] {
        &self.rows
    }

    /// Highest-priority (lowest index) matching row, if any.
    pub fn search(&self, query: &TernaryWord) -> Option<usize> {
        self.rows.iter().position(|row| row.matches(query))
    }

    /// All matching row indices, in priority order.
    pub fn search_all(&self, query: &TernaryWord) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.matches(query))
            .map(|(i, _)| i)
            .collect()
    }

    /// Per-row mismatch counts for one query (row-level energy driver).
    pub fn mismatch_profile(&self, query: &TernaryWord) -> Vec<usize> {
        self.rows.iter().map(|r| r.mismatch_count(query)).collect()
    }

    /// The row that is the *best* match under longest-prefix semantics:
    /// among matching rows, the one with the fewest wildcards.
    pub fn longest_prefix_match(&self, query: &TernaryWord) -> Option<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.matches(query))
            .min_by_key(|(i, row)| (row.wildcard_count(), *i))
            .map(|(i, _)| i)
    }
}

impl Extend<TernaryWord> for TcamTable {
    fn extend<I: IntoIterator<Item = TernaryWord>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.rows.reserve(iter.size_hint().0);
        for w in iter {
            self.push(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ternary::Ternary;

    fn table() -> TcamTable {
        let mut t = TcamTable::new(4);
        t.push("1010".parse().unwrap());
        t.push("10XX".parse().unwrap());
        t.push("XXXX".parse().unwrap());
        t
    }

    #[test]
    fn priority_search_returns_first_match() {
        let t = table();
        assert_eq!(t.search(&"1010".parse().unwrap()), Some(0));
        assert_eq!(t.search(&"1011".parse().unwrap()), Some(1));
        assert_eq!(t.search(&"0000".parse().unwrap()), Some(2));
    }

    #[test]
    fn search_all_in_priority_order() {
        let t = table();
        assert_eq!(t.search_all(&"1010".parse().unwrap()), vec![0, 1, 2]);
        assert_eq!(t.search_all(&"1111".parse().unwrap()), vec![2]);
    }

    #[test]
    fn no_match_on_empty_table() {
        let t = TcamTable::new(4);
        assert_eq!(t.search(&"0000".parse().unwrap()), None);
        assert!(t.is_empty());
    }

    #[test]
    fn mismatch_profile_matches_row_counts() {
        let t = table();
        let q: TernaryWord = "0101".parse().unwrap();
        assert_eq!(t.mismatch_profile(&q), vec![4, 2, 0]);
    }

    #[test]
    fn longest_prefix_match_prefers_specific_rows() {
        let mut t = TcamTable::new(4);
        t.push("XXXX".parse().unwrap());
        t.push("10XX".parse().unwrap());
        t.push("101X".parse().unwrap());
        let q = TernaryWord::from_bits(0b1010, 4);
        assert_eq!(t.longest_prefix_match(&q), Some(2));
        // Plain priority search would return row 0.
        assert_eq!(t.search(&q), Some(0));
    }

    #[test]
    fn extend_appends_rows() {
        let mut t = TcamTable::new(2);
        t.extend(vec![
            [Ternary::One, Ternary::Zero].into_iter().collect(),
            TernaryWord::all_x(2),
        ]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_width_rows() {
        let mut t = TcamTable::new(4);
        t.push("101".parse().unwrap());
    }
}
