//! Property-based equivalence: the engine's bit-plane kernels (sharded,
//! with and without the prefix index) must agree with the golden
//! `TcamTable` model on every operation, for arbitrary ternary content —
//! including all-X rows, all-X queries and empty tables — at widths that
//! fit one 64-digit mask word and widths that cross one or two.

use ftcam_engine::{BitPlaneTable, EngineConfig, PackedQuery, TcamEngine};
use ftcam_workloads::{TcamTable, Ternary, TernaryWord};
use proptest::prelude::*;

/// Widths under test: one mask word, and two (70) or three (130) words.
const WIDTHS: [usize; 3] = [10, 70, 130];

/// The widest case; raw material is drawn at this width and cut down.
const MAX_WIDTH: usize = 130;

/// Width of the small-table properties.
const WIDTH: usize = 10;

fn ternary() -> impl Strategy<Value = Ternary> {
    prop_oneof![Just(Ternary::Zero), Just(Ternary::One), Just(Ternary::X)]
}

fn word() -> impl Strategy<Value = TernaryWord> {
    proptest::collection::vec(ternary(), WIDTH).prop_map(TernaryWord::new)
}

/// Raw material of one row or query: random ternary digits, random bits,
/// a shape selector and a length (or row pick), cut to the case's width by
/// [`row`] and [`query`].
type Raw = (Vec<Ternary>, Vec<bool>, u8, usize);

fn raw() -> impl Strategy<Value = Raw> {
    (
        proptest::collection::vec(ternary(), MAX_WIDTH),
        proptest::collection::vec(any::<bool>(), MAX_WIDTH),
        0u8..8,
        any::<usize>(),
    )
}

/// A row of `width` digits: fully random ternary (half the rows), a prefix
/// of random length followed by `X` (the index's favourable shape), or the
/// all-X row.
fn row((digits, bits, shape, len): &Raw, width: usize) -> TernaryWord {
    match shape {
        0..=3 => TernaryWord::new(digits[..width].to_vec()),
        4..=6 => {
            let len = len % (width + 1);
            let definite = bits[..len].iter().map(|&b| Ternary::from_bit(b));
            TernaryWord::new(
                definite
                    .chain(std::iter::repeat_n(Ternary::X, width - len))
                    .collect(),
            )
        }
        _ => TernaryWord::all_x(width),
    }
}

/// A query against `t`: a random ternary word, or a stored row with its
/// `X` digits filled from the random bits, so that row matches. Half the
/// derived queries then invert one definite digit, mostly one of the first
/// four, so the row misses on that column alone — including the first
/// column a prefix-index bucket scan compares.
fn query((digits, bits, shape, pick): &Raw, t: &TcamTable) -> TernaryWord {
    let width = t.width();
    if *shape < 2 || t.is_empty() {
        return TernaryWord::new(digits[..width].to_vec());
    }
    let stored = &t.rows()[pick % t.len()];
    let mut filled: Vec<Ternary> = stored
        .digits()
        .iter()
        .zip(bits)
        .map(|(&d, &b)| {
            if d == Ternary::X {
                Ternary::from_bit(b)
            } else {
                d
            }
        })
        .collect();
    let flip = match shape {
        2..=4 => None,
        5 | 6 => Some(pick / t.len() % width.min(4)),
        _ => Some(pick / t.len() % width),
    };
    if let Some(col) = flip.filter(|&c| stored.digits()[c] != Ternary::X) {
        filled[col] = Ternary::from_bit(filled[col] == Ternary::Zero);
    }
    TernaryWord::new(filled)
}

fn table(width: usize, rows: Vec<TernaryWord>) -> TcamTable {
    let mut t = TcamTable::new(width);
    t.extend(rows);
    t
}

/// Engines covering the interesting configurations: single shard, several
/// shards, and a forced prefix index.
fn engines(t: &TcamTable) -> Vec<TcamEngine> {
    vec![
        TcamEngine::new(t, EngineConfig::default()),
        TcamEngine::new(
            t,
            EngineConfig {
                shards: 3,
                ..EngineConfig::default()
            },
        ),
        TcamEngine::new(
            t,
            EngineConfig {
                shards: 2,
                index_min_rows: 1,
                ..EngineConfig::default()
            },
        ),
    ]
}

/// Golden nearest-Hamming: min mismatch count, ties to lowest index.
fn golden_nearest(profile: &[usize]) -> Option<(u32, u32)> {
    profile
        .iter()
        .enumerate()
        .map(|(i, &k)| (k as u32, i as u32))
        .min()
        .map(|(k, i)| (i, k))
}

proptest! {
    /// Priority match, LPM, match count and nearest-Hamming all agree with
    /// the golden model for every engine configuration, and the bit-plane
    /// mismatch histogram agrees with the golden mismatch profile. Tables
    /// hold 130–299 rows, so each shard of the forced-index engine has at
    /// least 65 rows and really is indexed, and the last 64-row block is
    /// usually partial.
    #[test]
    fn engine_equals_golden_model(
        width in prop_oneof![Just(WIDTHS[0]), Just(WIDTHS[1]), Just(WIDTHS[2])],
        rows in proptest::collection::vec(raw(), 130..300),
        queries in proptest::collection::vec(raw(), 1..8),
    ) {
        let t = table(width, rows.iter().map(|r| row(r, width)).collect());
        let engines = engines(&t);
        prop_assert!(engines[2].is_indexed(), "{} rows, width {width}", t.len());
        let planes = BitPlaneTable::from_table(&t);
        for q in queries.iter().map(|r| query(r, &t)) {
            let profile = t.mismatch_profile(&q);
            let mut expect = vec![0u64; width + 1];
            for &k in &profile {
                expect[k] += 1;
            }
            let mut hist = vec![0u64; width + 1];
            planes.histogram_into(&PackedQuery::from_word(&q), &mut hist);
            prop_assert_eq!(hist, expect, "histogram, width {}", width);
            let search = t.search(&q).map(|i| i as u32);
            let lpm = t.longest_prefix_match(&q).map(|i| i as u32);
            let count = t.search_all(&q).len() as u64;
            let nearest = golden_nearest(&profile);
            for engine in &engines {
                let case = format!(
                    "width {width}, {} shards, indexed: {}",
                    engine.config().shards,
                    engine.is_indexed()
                );
                prop_assert_eq!(engine.search(&q), search, "search, {}", case);
                prop_assert_eq!(engine.lpm(&q), lpm, "lpm, {}", case);
                prop_assert_eq!(engine.match_count(&q), count, "match_count, {}", case);
                prop_assert_eq!(engine.nearest(&q), nearest, "nearest, {}", case);
            }
        }
    }

    /// All-X rows match every query; an all-X query matches every row.
    #[test]
    fn wildcard_extremes(rows in proptest::collection::vec(word(), 1..20)) {
        let mut all = rows.clone();
        all.insert(0, TernaryWord::all_x(WIDTH));
        let t = table(WIDTH, all);
        for engine in engines(&t) {
            // The all-X row at index 0 wins priority for any query.
            prop_assert_eq!(engine.search(&TernaryWord::from_bits(0, WIDTH)), Some(0));
            // The all-X query matches every row.
            prop_assert_eq!(engine.match_count(&TernaryWord::all_x(WIDTH)), t.len() as u64);
        }
    }

    /// Empty tables answer nothing, in every configuration.
    #[test]
    fn empty_table(q in word()) {
        let t = TcamTable::new(WIDTH);
        for engine in engines(&t) {
            prop_assert_eq!(engine.search(&q), None);
            prop_assert_eq!(engine.lpm(&q), None);
            prop_assert_eq!(engine.match_count(&q), 0);
            prop_assert_eq!(engine.nearest(&q), None);
        }
    }
}
