//! Chaos tests for Monte-Carlo samples run as executor jobs (requires
//! `--features fault-injection`): a panicking sample costs only its own
//! slot, and the assembled partial results do not depend on the executor
//! width.

use ftcam_array::{McResult, VariationParams, VariationPoint};
use ftcam_cells::{DesignKind, FaultMode, FaultPlan, Geometry, NewtonSettings, SearchTiming};
use ftcam_core::experiments::e07_variation::run_samples;
use ftcam_core::Executor;
use ftcam_devices::TechCard;

/// Runs one deliberately pathological point (σ(V_th) = 400 mV, see
/// `ftcam-array`'s chaos tests) on an executor of `threads` workers, with
/// `plan` injected into the samples listed in `poisoned`.
fn run_with_plan_on(
    plan: FaultPlan,
    poisoned: &[usize],
    samples: usize,
    threads: usize,
) -> McResult {
    let point = VariationPoint::new(
        DesignKind::FeFet2T,
        &TechCard::hp45(),
        &Geometry::default(),
        &SearchTiming::fast(),
        8,
        VariationParams {
            sigma_vth: 0.4,
            samples,
            seed: 3,
        },
    )
    .unwrap();
    let newton = |s| {
        if poisoned.contains(&s) {
            NewtonSettings::default().with_fault(plan)
        } else {
            NewtonSettings::default()
        }
    };
    let mut results = run_samples(&Executor::new(threads), &[&point], newton);
    assert_eq!(results.len(), 1);
    results.remove(0)
}

#[test]
fn panicking_sample_is_isolated_not_process_fatal() {
    let r = run_with_plan_on(FaultPlan::new(FaultMode::PanicOnSolve), &[2], 4, 2);
    assert_eq!(r.samples, 4);
    assert_eq!(r.solver_failures.len(), 1);
    assert_eq!(r.solver_failures[0].sample, 2);
    assert!(
        r.solver_failures[0].error.contains("panicked"),
        "error should record the panic: {}",
        r.solver_failures[0].error
    );
    assert_eq!(r.match_margins.len(), 3);
}

#[test]
fn partial_results_are_thread_count_invariant() {
    let a = run_with_plan_on(FaultPlan::new(FaultMode::DivergeAlways), &[1, 4], 5, 1);
    let b = run_with_plan_on(FaultPlan::new(FaultMode::DivergeAlways), &[1, 4], 5, 3);
    assert_eq!(a.match_margins, b.match_margins);
    assert_eq!(a.mismatch_margins, b.mismatch_margins);
    assert_eq!(a.solver_failures, b.solver_failures);
    assert_eq!(a.failures, b.failures);
}
