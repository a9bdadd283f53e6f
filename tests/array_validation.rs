//! Validates the array model's central scaling assumption against a real
//! multi-row transistor-level array: rows sharing search lines behave like
//! independent calibrated rows.

use ftcam::cells::{ArrayTestbench, DesignKind, RowTestbench, SearchTiming};
use ftcam::devices::TechCard;
use ftcam::workloads::TernaryWord;

const WIDTH: usize = 8;

fn words() -> Vec<TernaryWord> {
    vec![
        "10110100".parse().unwrap(),
        "1011010X".parse().unwrap(),
        "01001011".parse().unwrap(),
        "XXXXXXXX".parse().unwrap(),
    ]
}

/// Every row of the array decides exactly as the golden model says,
/// including the priority (first-match) resolution, for every flat design.
#[test]
fn array_rows_agree_with_golden_model() {
    let timing = SearchTiming::fast();
    let rows = words();
    for kind in DesignKind::ALL {
        if kind == DesignKind::EaMlSegmented {
            continue; // segmented: validated at row level only
        }
        let mut arr = ArrayTestbench::new(
            kind.instantiate(),
            TechCard::hp45(),
            Default::default(),
            4,
            WIDTH,
        )
        .expect("array builds");
        arr.program(&rows).expect("programs");

        for query_s in ["10110100", "10110101", "01001011", "11111111"] {
            let query: TernaryWord = query_s.parse().unwrap();
            let out = arr.search(&query, &timing).expect("search runs");
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(
                    out.row_matches[r],
                    row.matches(&query),
                    "{kind}: query {query_s}, row {r}"
                );
            }
            assert_eq!(out.first_match, arr.stored_table().search(&query));
        }
    }
}

/// Total array search energy tracks rows × single-row energy: the linear
/// scaling the analytical projection relies on.
#[test]
fn array_energy_scales_linearly_with_rows() {
    let timing = SearchTiming::fast();
    let stored: TernaryWord = "10110100".parse().unwrap();
    let query = stored.with_spread_mismatches(4);

    // Single calibrated row.
    let mut row = RowTestbench::new(
        DesignKind::FeFet2T.instantiate(),
        TechCard::hp45(),
        Default::default(),
        WIDTH,
    )
    .unwrap();
    row.program_word(&stored).unwrap();
    let e_row = row.search(&query, &timing).unwrap().energy_total;

    // 4 identical rows sharing SL drivers.
    let mut arr = ArrayTestbench::new(
        DesignKind::FeFet2T.instantiate(),
        TechCard::hp45(),
        Default::default(),
        4,
        WIDTH,
    )
    .unwrap();
    arr.program(&vec![stored.clone(); 4]).unwrap();
    let out = arr.search(&query, &timing).unwrap();

    let ratio = out.energy_total / (4.0 * e_row);
    assert!(
        (0.8..1.25).contains(&ratio),
        "array energy {:.3e} vs 4x row {:.3e} (ratio {ratio:.3})",
        out.energy_total,
        4.0 * e_row
    );
}

/// The shared search lines are charged once per search regardless of row
/// count per driver — SL energy grows with rows only through gate loading,
/// NOT once per row per driver.
#[test]
fn shared_search_lines_amortise_driver_energy() {
    let timing = SearchTiming::fast();
    let stored: TernaryWord = "10110100".parse().unwrap();
    let query = stored.with_spread_mismatches(2);
    let sl_energy = |rows: usize| {
        let mut arr = ArrayTestbench::new(
            DesignKind::FeFet2T.instantiate(),
            TechCard::hp45(),
            Default::default(),
            rows,
            WIDTH,
        )
        .unwrap();
        arr.program(&vec![stored.clone(); rows]).unwrap();
        arr.search(&query, &timing).unwrap().energy_sl
    };
    let e2 = sl_energy(2);
    let e6 = sl_energy(6);
    // Tripling the rows triples wire + gate load → ~3x, never ~9x.
    let ratio = e6 / e2;
    assert!((2.0..4.5).contains(&ratio), "SL scaling ratio {ratio:.2}");
}

/// The CMOS baseline also validates in array form (different cell, same
/// discipline).
#[test]
fn cmos_array_decides_correctly() {
    let timing = SearchTiming::fast();
    let mut arr = ArrayTestbench::new(
        DesignKind::Cmos16T.instantiate(),
        TechCard::hp45(),
        Default::default(),
        2,
        4,
    )
    .unwrap();
    let rows: Vec<TernaryWord> = vec!["10X1".parse().unwrap(), "0101".parse().unwrap()];
    arr.program(&rows).unwrap();
    let out = arr.search(&"1011".parse().unwrap(), &timing).unwrap();
    assert_eq!(out.row_matches, vec![true, false]);
    assert_eq!(out.first_match, Some(0));
}
