//! Property-based tests of the ternary data model and golden TCAM.

use ftcam_workloads::{TcamTable, Ternary, TernaryWord};
use proptest::prelude::*;

fn ternary() -> impl Strategy<Value = Ternary> {
    prop_oneof![Just(Ternary::Zero), Just(Ternary::One), Just(Ternary::X),]
}

fn word(width: usize) -> impl Strategy<Value = TernaryWord> {
    proptest::collection::vec(ternary(), width).prop_map(|digits| digits.into_iter().collect())
}

proptest! {
    /// Display/parse round-trips exactly.
    #[test]
    fn parse_display_round_trip(w in word(24)) {
        let s = w.to_string();
        let back: TernaryWord = s.parse().expect("own display parses");
        prop_assert_eq!(w, back);
    }

    /// Mismatch count is bounded by the width and zero against all-X.
    #[test]
    fn mismatch_count_bounds(stored in word(16), query in word(16)) {
        let k = stored.mismatch_count(&query);
        prop_assert!(k <= 16);
        prop_assert_eq!(stored.mismatch_count(&TernaryWord::all_x(16)), 0);
        // Matching is exactly k == 0.
        prop_assert_eq!(stored.matches(&query), k == 0);
    }

    /// Digit matching is symmetric (either side's X absorbs).
    #[test]
    fn digit_matching_symmetric(a in ternary(), b in ternary()) {
        prop_assert_eq!(a.matches(b), b.matches(a));
    }

    /// `with_mismatches` hits the requested Hamming distance exactly for
    /// definite words.
    #[test]
    fn with_mismatches_exact(value in any::<u16>(), k in 0usize..=16) {
        let w = TernaryWord::from_bits(u64::from(value), 16);
        let q = w.with_mismatches(k);
        prop_assert_eq!(w.mismatch_count(&q), k);
        let qs = w.with_spread_mismatches(k);
        prop_assert_eq!(w.mismatch_count(&qs), k);
    }

    /// Priority search returns the first index `search_all` reports, and
    /// every reported row really matches.
    #[test]
    fn table_search_consistency(
        rows in proptest::collection::vec(word(8), 1..12),
        query in word(8),
    ) {
        let mut table = TcamTable::new(8);
        table.extend(rows);
        let all = table.search_all(&query);
        prop_assert_eq!(table.search(&query), all.first().copied());
        for &r in &all {
            prop_assert!(table.rows()[r].matches(&query));
        }
        // And mismatch profile agrees with membership.
        let profile = table.mismatch_profile(&query);
        for (r, &k) in profile.iter().enumerate() {
            prop_assert_eq!(k == 0, all.contains(&r));
        }
    }

    /// Prefix words match exactly the addresses sharing the prefix.
    #[test]
    fn prefix_matching_semantics(value in any::<u32>(), len in 0usize..=16, probe in any::<u32>()) {
        let w = TernaryWord::prefix(u64::from(value), len, 16);
        let addr = TernaryWord::from_bits(u64::from(probe), 16);
        let expect = if len == 0 {
            true
        } else {
            // Compare the top `len` of the low 16 bits on both sides.
            ((u64::from(value) & 0xFFFF) >> (16 - len))
                == ((u64::from(probe) & 0xFFFF) >> (16 - len))
        };
        prop_assert_eq!(w.matches(&addr), expect);
    }
}

/// Widths of the packed-word properties: any of 1–130, or one of the
/// widths on either side of a mask-word boundary.
fn packed_width() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=130,
        prop_oneof![Just(63usize), Just(64), Just(65), Just(128), Just(129)],
    ]
}

/// The plain reference digits of a word built by [`prefix`]-style
/// generation: bit `width - 1 - j` of `value` for the first `len` digits
/// (bits above 63 read 0), `X` after.
///
/// [`prefix`]: TernaryWord::prefix
fn prefix_digits(value: u64, len: usize, width: usize) -> Vec<Ternary> {
    (0..width)
        .map(|j| {
            let k = width - 1 - j;
            if j >= len {
                Ternary::X
            } else {
                Ternary::from_bit(k < 64 && value >> k & 1 == 1)
            }
        })
        .collect()
}

fn hash_of(word: &TernaryWord) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    word.hash(&mut h);
    h.finish()
}

proptest! {
    /// A packed word behaves like a plain `Vec<Ternary>` at every width
    /// from 1 to 130, after a run of `set` edits: digit access, iteration
    /// both ways, text round trips, counts, matching, search-line toggles
    /// and the mask layout itself, with no stray bit past the width or a
    /// pattern bit without its care bit.
    #[test]
    fn packed_word_equals_digit_vector(
        width in packed_width(),
        stored in proptest::collection::vec(ternary(), 130),
        query in proptest::collection::vec(ternary(), 130),
        edits in proptest::collection::vec((any::<usize>(), ternary()), 0..40),
        segment in (any::<usize>(), any::<usize>()),
    ) {
        let mut digits = stored[..width].to_vec();
        let mut w: TernaryWord = digits.iter().copied().collect();
        for (i, d) in edits {
            digits[i % width] = d;
            w.set(i % width, d);
        }
        let q_digits = &query[..width];
        let q: TernaryWord = q_digits.iter().copied().collect();

        prop_assert_eq!(w.width(), width);
        for (j, &d) in digits.iter().enumerate() {
            prop_assert_eq!(w.get(j), d, "digit {}", j);
        }
        prop_assert_eq!(w.iter().collect::<Vec<_>>(), digits.clone());
        prop_assert_eq!(w.iter().len(), width);
        let reversed: Vec<Ternary> = digits.iter().rev().copied().collect();
        prop_assert_eq!(w.iter().rev().collect::<Vec<_>>(), reversed);
        prop_assert_eq!(&digits.iter().copied().collect::<TernaryWord>(), &w);

        let text: String = digits.iter().map(|d| d.to_char()).collect();
        prop_assert_eq!(w.to_string(), text.clone());
        prop_assert_eq!(text.parse::<TernaryWord>().expect("own text parses"), w.clone());

        let wildcards = digits.iter().filter(|&&d| d == Ternary::X).count();
        prop_assert_eq!(w.wildcard_count(), wildcards);
        prop_assert_eq!(w.definite_count(), width - wildcards);
        let missed: Vec<bool> = digits.iter().zip(q_digits).map(|(s, d)| !s.matches(*d)).collect();
        let mismatches = missed.iter().filter(|&&m| m).count();
        prop_assert_eq!(w.mismatch_count(&q), mismatches);
        prop_assert_eq!(w.matches(&q), mismatches == 0);
        let (a, b) = (segment.0 % (width + 1), segment.1 % (width + 1));
        let (start, end) = (a.min(b), a.max(b));
        let in_segment = missed[start..end].iter().filter(|&&m| m).count();
        prop_assert_eq!(w.mismatch_count_in(&q, start..end), in_segment);

        let levels = |d: Ternary| (d == Ternary::One, d == Ternary::Zero);
        let toggles = digits.iter().zip(q_digits).filter(|&(a, b)| levels(*a) != levels(*b)).count();
        prop_assert_eq!(q.sl_toggles(Some(&w)), toggles);
        prop_assert_eq!(w.sl_toggles(None), width - wildcards);

        prop_assert_eq!(w.masks().len(), width.div_ceil(64));
        for (k, &[care, pattern]) in w.masks().iter().enumerate() {
            prop_assert_eq!(pattern & !care, 0, "pattern bit without care bit");
            let used = (width - 64 * k).min(64);
            if used < 64 {
                prop_assert_eq!(care >> used, 0, "care bits past the width");
            }
        }
    }

    /// `prefix` and `from_bits` lay their digits out like the plain
    /// reference on both sides of each mask-word boundary.
    #[test]
    fn prefix_and_from_bits_across_mask_words(
        value in any::<u64>(),
        width in prop_oneof![Just(63usize), Just(64), Just(65), Just(130)],
        len in any::<usize>(),
    ) {
        let len = len % (width + 1);
        let prefix = TernaryWord::prefix(value, len, width);
        prop_assert_eq!(prefix.iter().collect::<Vec<_>>(), prefix_digits(value, len, width));
        prop_assert_eq!(&prefix, &prefix_digits(value, len, width).into_iter().collect());
        let bits = TernaryWord::from_bits(value, width);
        prop_assert_eq!(&bits, &prefix_digits(value, width, width).into_iter().collect());
        prop_assert!(prefix.matches(&bits));
    }
}

/// `Eq` and `Hash` agree for one word built three ways: parsed, collected,
/// and edited away from its digits and back.
#[test]
fn eq_and_hash_agree_across_constructions() {
    for width in [1, 5, 63, 64, 65, 128, 129, 130] {
        let text: String = (0..width).map(|j| ['1', '0', 'X', '1'][j % 4]).collect();
        let parsed: TernaryWord = text.parse().expect("valid digits");
        let collected: TernaryWord = text.chars().filter_map(Ternary::from_char).collect();
        let mut edited = TernaryWord::zeros(width);
        for j in 0..width {
            edited.set(j, Ternary::One);
        }
        for (j, d) in parsed.iter().enumerate() {
            edited.set(j, d);
        }
        for other in [&collected, &edited] {
            assert_eq!(&parsed, other, "width {width}");
            assert_eq!(hash_of(&parsed), hash_of(other), "width {width}");
        }
        assert_ne!(parsed, TernaryWord::all_x(width), "width {width}");
    }
}
