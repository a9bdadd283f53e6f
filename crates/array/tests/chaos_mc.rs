//! Chaos tests for the partial-results Monte Carlo (requires
//! `--features fault-injection`): injected solver faults must surface as
//! per-sample [`ftcam_array::McSolverFailure`] entries — with the failing
//! sample's index — while every surviving sample keeps its full margin
//! pair. Panic isolation and executor-width invariance are checked where
//! samples run as executor jobs (`ftcam-core`'s `chaos_mc` tests).

use ftcam_array::{McResult, VariationParams, VariationPoint};
use ftcam_cells::{DesignKind, FaultMode, FaultPlan, Geometry, NewtonSettings, SearchTiming};
use ftcam_devices::TechCard;

fn point(samples: usize) -> VariationPoint {
    VariationPoint::new(
        DesignKind::FeFet2T,
        &TechCard::hp45(),
        &Geometry::default(),
        &SearchTiming::fast(),
        8,
        VariationParams {
            // Deliberately pathological σ(V_th): 400 mV is far beyond any
            // published FeFET spread. The recovery ladder absorbs even this
            // (see DESIGN.md §6), so unrecoverable divergence is injected
            // via FaultPlan to make the partial-results path deterministic.
            sigma_vth: 0.4,
            samples,
            seed: 3,
        },
    )
    .unwrap()
}

/// Runs every sample serially, in sample order, with `plan` injected into
/// the samples listed in `poisoned`.
fn run_with_plan_on(plan: FaultPlan, poisoned: &[usize], samples: usize) -> McResult {
    let point = point(samples);
    McResult::from_outcomes((0..samples).map(|s| {
        let newton = if poisoned.contains(&s) {
            NewtonSettings::default().with_fault(plan)
        } else {
            NewtonSettings::default()
        };
        point.sample(s, newton).map_err(|e| e.to_string())
    }))
}

#[test]
fn diverging_samples_surface_as_indexed_solver_failures() {
    let r = run_with_plan_on(FaultPlan::new(FaultMode::DivergeAlways), &[0, 3], 6);
    assert_eq!(r.samples, 6);
    assert_eq!(r.evaluated(), 4);
    let failed: Vec<usize> = r.solver_failures.iter().map(|f| f.sample).collect();
    assert_eq!(failed, vec![0, 3]);
    for f in &r.solver_failures {
        assert!(
            f.error.contains("underflow"),
            "expected a step-size underflow, got: {}",
            f.error
        );
    }
    // Survivors keep full, finite margin vectors.
    assert_eq!(r.match_margins.len(), 4);
    assert_eq!(r.mismatch_margins.len(), 4);
    assert!(r.match_margins.iter().all(|m| m.is_finite()));
}

#[test]
fn survivors_match_the_unfaulted_run_sample_for_sample() {
    // Per-sample RNG streams are independent of which samples fail, so
    // killing sample 1 must leave samples 0/2/3 bit-identical.
    let clean = run_with_plan_on(FaultPlan::new(FaultMode::DivergeAlways), &[], 4);
    let faulted = run_with_plan_on(FaultPlan::new(FaultMode::DivergeAlways), &[1], 4);
    let expected: Vec<f64> = [0usize, 2, 3]
        .iter()
        .map(|&s| clean.match_margins[s])
        .collect();
    assert_eq!(faulted.match_margins, expected);
}
