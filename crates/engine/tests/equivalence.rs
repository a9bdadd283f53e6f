//! Property-based equivalence: the engine's bit-plane kernels (sharded,
//! with and without the prefix index) must agree with the golden
//! `TcamTable` model on every operation, for arbitrary ternary content —
//! including all-X rows, all-X queries and empty tables — at widths that
//! fit one 64-digit mask word and widths that cross one or two. The
//! mismatch-counting kernel is also checked at every counter-plane count,
//! and the words' mask words around every mask-word boundary.

use ftcam_engine::{BitPlaneTable, EngineConfig, TcamEngine};
use ftcam_workloads::{TcamTable, Ternary, TernaryWord, ToggleStats};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

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
    proptest::collection::vec(ternary(), WIDTH).prop_map(|digits| digits.into_iter().collect())
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
        0..=3 => digits[..width].iter().copied().collect(),
        4..=6 => {
            let len = len % (width + 1);
            let definite = bits[..len].iter().map(|&b| Ternary::from_bit(b));
            definite
                .chain(std::iter::repeat_n(Ternary::X, width - len))
                .collect()
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
        return digits[..width].iter().copied().collect();
    }
    let stored = &t.rows()[pick % t.len()];
    let mut filled: Vec<Ternary> = stored
        .iter()
        .zip(bits)
        .map(|(d, &b)| {
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
    if let Some(col) = flip.filter(|&c| stored.get(c) != Ternary::X) {
        filled[col] = Ternary::from_bit(filled[col] == Ternary::Zero);
    }
    filled.into_iter().collect()
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
            planes.histogram_into(&q, &mut hist);
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

/// Widths whose counts need 1 to 9 counter planes, on both sides of each
/// plane boundary and of the 64-digit mask-word boundaries.
const KERNEL_WIDTHS: [usize; 14] = [1, 3, 7, 8, 31, 32, 63, 64, 65, 127, 128, 255, 256, 300];

/// A random ternary word: each digit is `X` with probability `p_x`, else a
/// fair bit.
fn random_word(rng: &mut ChaCha8Rng, width: usize, p_x: f64) -> TernaryWord {
    (0..width)
        .map(|_| {
            if rng.gen_bool(p_x) {
                Ternary::X
            } else {
                Ternary::from_bit(rng.gen_bool(0.5))
            }
        })
        .collect()
}

/// `base` with each definite digit inverted with probability `p_flip` and
/// turned into `X` with probability `p_x`: against a definite `base` its
/// mismatch count spreads over `0..=width` as `p_flip` does over `0..1`.
fn perturbed(rng: &mut ChaCha8Rng, base: &TernaryWord, p_flip: f64, p_x: f64) -> TernaryWord {
    base.iter()
        .map(|d| match d {
            _ if rng.gen_bool(p_x) => Ternary::X,
            Ternary::X => Ternary::from_bit(rng.gen_bool(0.5)),
            d if rng.gen_bool(p_flip) => Ternary::from_bit(d == Ternary::Zero),
            d => d,
        })
        .collect()
}

/// The counting kernel behind `histogram_into` and `nearest` agrees with
/// the golden per-row mismatch counts at every width of [`KERNEL_WIDTHS`].
/// Each table has 150 rows (two full blocks and a partial one): half are
/// random ternary rows, half perturb a definite anchor query from none to
/// every digit inverted, and the last is the anchor's complement, so
/// counts reach the top plane at every width.
#[test]
fn counting_kernel_equals_golden_at_every_plane_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x00c0_ffee);
    for width in KERNEL_WIDTHS {
        let anchor = random_word(&mut rng, width, 0.0);
        let mut t = TcamTable::new(width);
        for i in 0..150 {
            let row = if i == 149 {
                perturbed(&mut rng, &anchor, 1.0, 0.0)
            } else if i % 2 == 0 {
                let p_x = [0.0, 0.1, 0.4][i % 3];
                random_word(&mut rng, width, p_x)
            } else {
                let p_flip = rng.gen_range(0.0..1.0);
                perturbed(&mut rng, &anchor, p_flip, [0.0, 0.0, 0.05][i % 3])
            };
            t.push(row);
        }
        let planes = BitPlaneTable::from_table(&t);
        let mut queries = vec![anchor.clone(), TernaryWord::all_x(width)];
        queries.extend([0.0, 0.2, 0.5].map(|p_x| random_word(&mut rng, width, p_x)));
        queries.push(perturbed(&mut rng, &anchor, 0.5, 0.1));
        for (n, q) in queries.iter().enumerate() {
            let profile = t.mismatch_profile(q);
            let mut expect = vec![0u64; width + 1];
            for &k in &profile {
                expect[k] += 1;
            }
            let mut hist = vec![0u64; width + 1];
            planes.histogram_into(q, &mut hist);
            assert_eq!(hist, expect, "histogram, width {width}, query {n}");
            assert_eq!(
                planes.nearest(q),
                golden_nearest(&profile),
                "nearest, width {width}, query {n}"
            );
        }
        // The anchor's counts span the width: the top plane is used.
        let top = t.mismatch_profile(&anchor).into_iter().max().unwrap_or(0);
        assert_eq!(top, width, "the complement row mismatches every digit");
    }
}

/// A word keeps every digit across its mask words: the `[care, pattern]`
/// bits and search-line toggles agree with the digits at widths around 64
/// and at 130. (The prefix index's top-digit key is checked over the same
/// widths by `top_key_agrees_with_digits_across_mask_words` in the
/// engine's `query` module.)
#[test]
fn masks_round_trip_across_mask_words() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0051_5eed);
    for width in [63, 64, 65, 130] {
        let words: Vec<TernaryWord> = [0.0, 0.3, 0.0, 1.0, 0.1]
            .iter()
            .map(|&p_x| random_word(&mut rng, width, p_x))
            .collect();
        let mut prev: Option<&TernaryWord> = None;
        for w in &words {
            assert_eq!(w.width(), width);
            assert_eq!(w.masks().len(), width.div_ceil(64));
            for (j, d) in w.iter().enumerate() {
                let [care, pattern] = w.masks()[j / 64];
                let bits = ((care >> (j % 64)) & 1, (pattern >> (j % 64)) & 1);
                let expect = match d {
                    Ternary::X => (0, 0),
                    Ternary::Zero => (1, 0),
                    Ternary::One => (1, 1),
                };
                assert_eq!(bits, expect, "width {width}, digit {j}");
            }
            // SL is driven high on a definite 1, SLB on a definite 0; the
            // first query charges from the idle (all-low) state.
            let levels = |d: Ternary| (d == Ternary::One, d == Ternary::Zero);
            let golden = match prev {
                None => w.iter().filter(|&d| levels(d) != (false, false)).count(),
                Some(pw) => pw
                    .iter()
                    .zip(w)
                    .filter(|&(a, b)| levels(a) != levels(b))
                    .count(),
            };
            assert_eq!(w.sl_toggles(prev), golden, "width {width} toggles");
            let stream: Vec<TernaryWord> = prev.into_iter().chain([w]).cloned().collect();
            let stats = ToggleStats::from_queries(&stream);
            let charged = prev.map_or(0, TernaryWord::definite_count);
            assert_eq!(
                stats.transitions_per_search() * stream.len() as f64,
                (charged + golden) as f64,
                "width {width} toggle stats"
            );
            prev = Some(w);
        }
    }
}
