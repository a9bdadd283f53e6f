//! Cross-crate property test: the transistor-level search decision must
//! agree with the functional golden model for arbitrary ternary contents
//! and queries.

use ftcam::cells::{DesignKind, RowTestbench, SearchTiming};
use ftcam::devices::TechCard;
use ftcam::workloads::{Ternary, TernaryWord};
use proptest::prelude::*;

const WIDTH: usize = 8;

fn ternary_strategy() -> impl Strategy<Value = Ternary> {
    prop_oneof![
        2 => Just(Ternary::Zero),
        2 => Just(Ternary::One),
        1 => Just(Ternary::X),
    ]
}

fn word_strategy() -> impl Strategy<Value = TernaryWord> {
    proptest::collection::vec(ternary_strategy(), WIDTH)
        .prop_map(|digits| digits.into_iter().collect())
}

/// Definite (no-X) query words, as hardware drives them.
fn query_strategy() -> impl Strategy<Value = TernaryWord> {
    proptest::collection::vec(any::<bool>(), WIDTH)
        .prop_map(|bits| bits.into_iter().map(Ternary::from_bit).collect())
}

proptest! {
    // Each case is a full transistor-level program + search: keep the case
    // count modest (the default 256 would take minutes).
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    #[test]
    fn fefet_circuit_matches_golden_model(
        stored in word_strategy(),
        query in query_strategy(),
    ) {
        let mut row = RowTestbench::new(
            DesignKind::FeFet2T.instantiate(),
            TechCard::hp45(),
            Default::default(),
            WIDTH,
        ).expect("testbench builds");
        row.program_word(&stored).expect("programs");
        let outcome = row.search(&query, &SearchTiming::fast()).expect("search runs");
        prop_assert_eq!(
            outcome.matched,
            stored.matches(&query),
            "stored {} query {}",
            stored,
            query
        );
        // Energy and margin are physical regardless of outcome.
        prop_assert!(outcome.energy_total > 0.0);
        prop_assert!(outcome.sense_margin > 0.0, "margin {}", outcome.sense_margin);
    }

    #[test]
    fn cmos_circuit_matches_golden_model(
        stored in word_strategy(),
        query in query_strategy(),
    ) {
        let mut row = RowTestbench::new(
            DesignKind::Cmos16T.instantiate(),
            TechCard::hp45(),
            Default::default(),
            WIDTH,
        ).expect("testbench builds");
        row.program_word(&stored).expect("programs");
        let outcome = row.search(&query, &SearchTiming::fast()).expect("search runs");
        prop_assert_eq!(outcome.matched, stored.matches(&query));
    }
}
