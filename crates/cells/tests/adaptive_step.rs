//! Adaptive-stepping accuracy at the testbench level: search energies,
//! match-line delay and FeFET write energy under `StepControl::Adaptive`
//! must agree with the fixed-step reference within 1%, at a ≥ 2× accepted
//! step reduction.

use ftcam_cells::{DesignKind, RowTestbench, SearchTiming, StepControl, StepStats, WriteTiming};
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

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-30)
}

/// One full FeFET row lifecycle (transient write, then match + mismatch
/// searches) under the given policy.
fn fefet_cycle(step: StepControl) -> (f64, f64, f64, f64, StepStats) {
    let stored: TernaryWord = "10X1011X".parse().unwrap();
    let hit: TernaryWord = "10110110".parse().unwrap();
    let miss = hit.with_mismatches(1);
    let timing = SearchTiming::fast().with_step_control(step);
    let wtiming = WriteTiming::default().with_step_control(step);

    let mut row = row(DesignKind::FeFet2T, 8);
    let wout = row.write_word(&stored, &wtiming).unwrap();
    assert!(wout.programmed_ok, "write must program every cell");
    let out_hit = row.search(&hit, &timing).unwrap();
    assert!(out_hit.matched);
    let out_miss = row.search(&miss, &timing).unwrap();
    assert!(!out_miss.matched);
    (
        wout.energy_total,
        out_hit.energy_total,
        out_miss.energy_total,
        out_miss.latency,
        row.step_stats(),
    )
}

#[test]
fn fefet_row_energies_and_delay_match_fixed_within_one_percent() {
    let (wf, hf, mf, df, sf) = fefet_cycle(StepControl::Fixed);
    let (wa, ha, ma, da, sa) = fefet_cycle(StepControl::adaptive());

    assert!(
        rel(wf, wa) < 0.01,
        "write energy: fixed {wf:e} vs adaptive {wa:e}"
    );
    assert!(
        rel(hf, ha) < 0.01,
        "match energy: fixed {hf:e} vs adaptive {ha:e}"
    );
    assert!(
        rel(mf, ma) < 0.01,
        "miss energy: fixed {mf:e} vs adaptive {ma:e}"
    );
    assert!(
        rel(df, da) < 0.01,
        "ML delay: fixed {df:e} vs adaptive {da:e}"
    );

    assert_eq!(sf.rejected, 0, "fixed stepping never rejects");
    assert!(
        sa.accepted * 2 <= sf.accepted,
        "adaptive {} vs fixed {} accepted steps across the row lifecycle",
        sa.accepted,
        sf.accepted
    );
}

/// The testbench accumulates statistics across operations, and the policy
/// rides inside the timing structs.
#[test]
fn step_policy_rides_in_timing_and_stats_accumulate() {
    let timing = SearchTiming::default().with_step_control(StepControl::adaptive());
    assert!(timing.step.is_adaptive());

    let stored: TernaryWord = "1011".parse().unwrap();
    let mut row = row(DesignKind::Cmos16T, 4);
    row.program_word(&stored).unwrap();
    assert_eq!(row.step_stats(), StepStats::default());
    let t = SearchTiming::fast();
    row.search(&stored, &t).unwrap();
    let after_one = row.step_stats();
    assert!(after_one.accepted > 0);
    row.search(&stored, &t).unwrap();
    assert!(row.step_stats().accepted > after_one.accepted);
}
