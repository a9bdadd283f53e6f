//! End-to-end functional validation: every design's electrical search
//! outcome must agree with the golden ternary-matching model, and the
//! energy ordering claimed by the paper must hold.

use ftcam_cells::{DesignKind, RowTestbench, SearchTiming, WriteTiming};
use ftcam_devices::TechCard;
use ftcam_workloads::TernaryWord;

fn row(kind: DesignKind, width: usize) -> RowTestbench {
    RowTestbench::new(
        kind.instantiate(),
        TechCard::hp45(),
        Default::default(),
        width,
    )
    .expect("testbench builds")
}

/// Match vs 1-bit mismatch for every design, checked against the golden
/// model.
#[test]
fn all_designs_decide_match_and_mismatch() {
    let stored: TernaryWord = "10X1011X".parse().unwrap();
    let hit: TernaryWord = "10110110".parse().unwrap();
    let miss = hit.with_mismatches(1);
    let timing = SearchTiming::fast();
    for kind in DesignKind::ALL {
        let mut row = row(kind, 8);
        row.program_word(&stored).unwrap();
        assert!(row.golden_matches(&hit));
        assert!(!row.golden_matches(&miss));

        let out_hit = row.search(&hit, &timing).unwrap();
        assert!(
            out_hit.matched,
            "{kind}: match query decided as mismatch (ml@sense = {:.3} V, threshold {:.3})",
            out_hit.stages.last().unwrap().ml_at_sense,
            out_hit.sense_threshold
        );
        let out_miss = row.search(&miss, &timing).unwrap();
        assert!(
            !out_miss.matched,
            "{kind}: 1-bit mismatch decided as match (ml@sense = {:.3} V, threshold {:.3})",
            out_miss.stages.last().unwrap().ml_at_sense,
            out_miss.sense_threshold
        );
        // Energies are physical.
        assert!(out_hit.energy_total > 0.0, "{kind}: nonpositive energy");
        assert!(out_miss.energy_total > 0.0);
        assert!(out_miss.latency > 0.0);
    }
}

/// Search energy lands in the fJ/search regime expected at this node.
#[test]
fn search_energy_is_femtojoule_scale() {
    let stored: TernaryWord = "10110110".parse().unwrap();
    let miss = stored.with_mismatches(2);
    let timing = SearchTiming::fast();
    for kind in [DesignKind::Cmos16T, DesignKind::FeFet2T, DesignKind::EaFull] {
        let mut row = row(kind, 8);
        row.program_word(&stored).unwrap();
        let out = row.search(&miss, &timing).unwrap();
        let e = out.energy_total;
        assert!(
            e > 0.1e-15 && e < 500e-15,
            "{kind}: search energy {e:.3e} J out of expected range"
        );
    }
}

/// The low-swing design must spend less match-line energy than the 2-FeFET
/// baseline on a mismatch-heavy search (the quadratic V_pre claim).
#[test]
fn low_swing_reduces_ml_energy() {
    let stored: TernaryWord = "1011011010110110".parse().unwrap();
    let miss = stored.with_mismatches(4);
    let timing = SearchTiming::fast();

    let mut base = row(DesignKind::FeFet2T, 16);
    base.program_word(&stored).unwrap();
    let e_base = base.search(&miss, &timing).unwrap();

    let mut ls = row(DesignKind::EaLowSwing, 16);
    ls.program_word(&stored).unwrap();
    let e_ls = ls.search(&miss, &timing).unwrap();

    assert!(
        e_ls.energy_ml < 0.6 * e_base.energy_ml,
        "low-swing ML energy {:.3e} not well below baseline {:.3e}",
        e_ls.energy_ml,
        e_base.energy_ml
    );
}

/// The SL-gated design's steady-state SL energy vanishes for a repeated
/// query, while the baseline pays every cycle.
#[test]
fn sl_gating_amortises_search_line_energy() {
    let stored: TernaryWord = "1011011010110110".parse().unwrap();
    let query = stored.clone(); // match; SL energy independent of outcome
    let timing = SearchTiming::fast();

    let mut base = row(DesignKind::FeFet2T, 16);
    base.program_word(&stored).unwrap();
    let e_base = base.search(&query, &timing).unwrap();

    let mut slg = row(DesignKind::EaSlGated, 16);
    slg.program_word(&stored).unwrap();
    let e_slg = slg.search(&query, &timing).unwrap();

    assert!(
        e_slg.energy_sl < 0.2 * e_base.energy_sl,
        "gated SL energy {:.3e} vs baseline {:.3e}",
        e_slg.energy_sl,
        e_base.energy_sl
    );
}

/// The segmented design stops after the first segment on an early mismatch.
#[test]
fn segmented_design_terminates_early() {
    let stored: TernaryWord = "1011011010110110".parse().unwrap();
    let timing = SearchTiming::fast();
    let mut seg = row(DesignKind::EaMlSegmented, 16);
    seg.program_word(&stored).unwrap();

    // Mismatch in the first digit → only stage 0 evaluated.
    let early_miss = stored.with_mismatches(1);
    let out = seg.search(&early_miss, &timing).unwrap();
    assert!(!out.matched);
    assert_eq!(
        out.stages.len(),
        1,
        "early mismatch must stop after stage 0"
    );

    // Full match → all segments evaluated.
    let out_hit = seg.search(&stored, &timing).unwrap();
    assert!(out_hit.matched);
    assert_eq!(out_hit.stages.len(), 4);

    // The paper's claim: on an early mismatch, the segmented design spends
    // less than the flat 2-FeFET baseline, because only a quarter of the
    // ML is precharged/discharged and only a quarter of the SLs toggle.
    let mut flat = row(DesignKind::FeFet2T, 16);
    flat.program_word(&stored).unwrap();
    let out_flat = flat.search(&early_miss, &timing).unwrap();
    assert!(
        out.energy_total < 0.6 * out_flat.energy_total,
        "segmented early-mismatch {:.3e} vs flat {:.3e}",
        out.energy_total,
        out_flat.energy_total
    );
}

/// Golden cross-check over a spread of random-ish patterns.
#[test]
fn golden_model_agreement_fefet() {
    let timing = SearchTiming::fast();
    let mut row = row(DesignKind::FeFet2T, 8);
    let cases = [
        ("10110100", "10110100"),
        ("10110100", "10110101"),
        ("1011010X", "10110101"),
        ("XXXXXXXX", "01010101"),
        ("10X10X10", "10010110"),
        ("00000000", "11111111"),
    ];
    for (stored_s, query_s) in cases {
        let stored: TernaryWord = stored_s.parse().unwrap();
        let query: TernaryWord = query_s.parse().unwrap();
        row.program_word(&stored).unwrap();
        let out = row.search(&query, &timing).unwrap();
        assert_eq!(
            out.matched,
            stored.matches(&query),
            "stored {stored_s}, query {query_s}: circuit={}, golden={}",
            out.matched,
            stored.matches(&query)
        );
    }
}

/// Transient write programs the word and subsequent searches agree.
#[test]
fn transient_write_then_search() {
    let timing = SearchTiming::fast();
    let mut row = row(DesignKind::FeFet2T, 4);
    let word: TernaryWord = "10X1".parse().unwrap();
    let out = row.write_word(&word, &WriteTiming::default()).unwrap();
    assert!(out.programmed_ok, "polarizations: {:?}", out.polarizations);
    assert!(
        out.energy_total > 1e-15,
        "write energy {:.3e}",
        out.energy_total
    );
    assert!(out.energy_switching > 0.0);
    assert_eq!(row.stored_word(), &word);

    let hit: TernaryWord = "1001".parse().unwrap();
    assert!(row.search(&hit, &timing).unwrap().matched);
    let miss: TernaryWord = "0001".parse().unwrap();
    assert!(!row.search(&miss, &timing).unwrap().matched);
}

/// Volatile designs refuse transient writes.
#[test]
fn cmos_rejects_transient_write() {
    let mut row = row(DesignKind::Cmos16T, 4);
    let err = row.write_word(&"1010".parse().unwrap(), &WriteTiming::default());
    assert!(err.is_err());
}

/// More mismatching bits discharge the ML faster (shorter latency).
#[test]
fn mismatch_count_speeds_discharge() {
    let timing = SearchTiming::fast();
    let stored: TernaryWord = "1011011010110110".parse().unwrap();
    let mut row = row(DesignKind::FeFet2T, 16);
    row.program_word(&stored).unwrap();
    let t1 = row
        .search(&stored.with_mismatches(1), &timing)
        .unwrap()
        .latency;
    let t8 = row
        .search(&stored.with_mismatches(8), &timing)
        .unwrap()
        .latency;
    assert!(
        t8 < t1,
        "8-bit mismatch ({t8:.3e}) should be faster than 1-bit ({t1:.3e})"
    );
}

/// Digital and analog search share one search cycle: driving a flat
/// return-to-zero row with the design's own ternary SL levels through
/// `search_analog` reproduces `search` exactly (the total energy may
/// differ only in the last bits of its summation).
#[test]
fn analog_search_with_ternary_levels_matches_digital_search() {
    let stored: TernaryWord = "10X1011X".parse().unwrap();
    let timing = SearchTiming::fast();
    let card = TechCard::hp45();
    assert!(
        DesignKind::FeFet2T
            .instantiate()
            .features()
            .sl_return_to_zero
    );
    for query in ["10110110", "00110110"] {
        let query: TernaryWord = query.parse().unwrap();
        // Separate rows so both searches start from the same device state.
        let mut digital_row = row(DesignKind::FeFet2T, 8);
        let mut analog_row = row(DesignKind::FeFet2T, 8);
        digital_row.program_word(&stored).unwrap();
        analog_row.program_word(&stored).unwrap();
        let (v_sl, v_slb): (Vec<f64>, Vec<f64>) = query
            .iter()
            .map(|d| analog_row.design().sl_levels(d, &card))
            .unzip();
        let digital = digital_row.search(&query, &timing).unwrap();
        let analog = analog_row.search_analog(&v_sl, &v_slb, &timing).unwrap();
        assert_eq!(digital.matched, digital_row.golden_matches(&query));
        assert_eq!(analog.matched, digital.matched, "query {query}");
        assert_eq!(analog.latency, digital.latency, "query {query}");
        assert_eq!(analog.energy_ml, digital.energy_ml, "query {query}");
        assert_eq!(analog.energy_sl, digital.energy_sl, "query {query}");
        assert_eq!(analog.energy_ctrl, digital.energy_ctrl, "query {query}");
        let ulps = 4.0 * f64::EPSILON * digital.energy_total.abs();
        assert!(
            (analog.energy_total - digital.energy_total).abs() <= ulps,
            "query {query}: total {:e} vs {:e}",
            analog.energy_total,
            digital.energy_total
        );
    }
}

/// The measure pass evaluates only the devices with a terminal on a
/// pinned source. Debug builds compare every pin's current at every
/// accepted step, bit for bit, with a pass over every device (the
/// full-measure reference inside `ftcam-circuit`), so every pin's supply
/// energy equals the full-measure one. This drives one search and, where
/// the design writes transiently, one write through every design at
/// width 8.
#[cfg(debug_assertions)]
#[test]
fn every_design_measures_every_pin_current() {
    let stored: TernaryWord = "10X1011X".parse().unwrap();
    let query: TernaryWord = "10110111".parse().unwrap();
    for kind in DesignKind::ALL {
        let mut row = row(kind, 8);
        row.program_word(&stored).unwrap();
        let out = row.search(&query, &SearchTiming::fast()).unwrap();
        assert!(out.energy_total > 0.0, "{kind}: search energy");
        if kind.instantiate().supports_transient_write() {
            let out = row.write_word(&query, &WriteTiming::default()).unwrap();
            assert!(out.energy_total > 0.0, "{kind}: write energy");
        }
    }
}
