//! Adaptive (LTE-controlled) time-stepping: accuracy against the
//! fixed-step reference, commit-only-after-acceptance semantics, and the
//! sliver-segment guard.

use ftcam_circuit::analysis::{NewtonSettings, StepControl, Transient, TransientOpts};
use ftcam_circuit::elements::{Capacitor, Diode, Resistor};
use ftcam_circuit::waveform::Waveform;
use ftcam_circuit::{Circuit, CommitCtx, Device, NodeId, StampCtx, TransientResult};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A driven RC with a realistic TCAM-ish shape: a pulse train with fast
/// edges and long flat plateaus.
fn rc_pulse_circuit() -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let drv = ckt.node("drv");
    let out = ckt.node("out");
    ckt.pin(
        drv,
        "VDRV",
        Waveform::pulse_train(0.0, 0.8, 0.2e-9, 40e-12, 40e-12, 1.0e-9, 2.5e-9),
    )
    .unwrap();
    ckt.add(Resistor::new(drv, out, 2e3));
    ckt.add(Capacitor::new(out, ckt.ground(), 25e-15)); // τ = 50 ps
    (ckt, out)
}

fn run(step: StepControl) -> TransientResult {
    let (mut ckt, out) = rc_pulse_circuit();
    let opts = TransientOpts::new(10e-12, 8e-9)
        .with_step_control(step)
        .record_nodes([out]);
    Transient::new(opts).run(&mut ckt).unwrap()
}

#[test]
fn adaptive_matches_fixed_energy_within_one_percent_with_fewer_steps() {
    let fixed = run(StepControl::Fixed);
    let adaptive = run(StepControl::adaptive());

    let e_fixed = fixed.supply_energy("VDRV").unwrap();
    let e_adaptive = adaptive.supply_energy("VDRV").unwrap();
    assert!(e_fixed > 0.0, "pulse train must draw energy");
    let rel = (e_fixed - e_adaptive).abs() / e_fixed;
    assert!(
        rel < 0.01,
        "supply energy off by {:.3}%: fixed {e_fixed:.4e} vs adaptive {e_adaptive:.4e}",
        rel * 100.0
    );

    // Waveform agreement at a few mid-plateau instants.
    let tf = fixed.trace("out").unwrap();
    let ta = adaptive.trace("out").unwrap();
    for t in [0.9e-9, 2.0e-9, 3.4e-9, 6.0e-9] {
        assert!(
            (tf.value_at(t) - ta.value_at(t)).abs() < 8e-3,
            "waveforms diverge at t = {t:e}"
        );
    }

    // The headline claim: well over 2× fewer accepted steps.
    assert!(
        adaptive.step_stats().accepted * 2 <= fixed.step_stats().accepted,
        "adaptive {} vs fixed {} accepted steps",
        adaptive.step_stats().accepted,
        fixed.step_stats().accepted
    );
    assert_eq!(fixed.step_stats().rejected, 0);
}

/// Zero-stamp device that counts `commit` calls: proves rejected steps
/// never reach device state.
#[derive(Debug)]
struct CommitCounter {
    commits: Arc<AtomicU64>,
}

impl Device for CommitCounter {
    fn stamp(&self, _ctx: &mut StampCtx<'_>) {}

    fn commit(&mut self, ctx: &CommitCtx<'_>) {
        // `init` (and the t = 0 sample path) call with `dt = None`; only
        // accepted transient steps carry a step size.
        if ctx.dt().is_some() {
            self.commits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn diode_clamp_circuit(commits: &Arc<AtomicU64>) -> Circuit {
    // A diode clamp turning on mid-plateau (no breakpoint there) forces
    // genuine LTE rejections once the controller has grown the step.
    let mut ckt = Circuit::new();
    let drv = ckt.node("drv");
    let out = ckt.node("out");
    ckt.pin(drv, "VDRV", Waveform::step(0.0, 1.5, 0.1e-9, 20e-12))
        .unwrap();
    ckt.add(Resistor::new(drv, out, 20e3));
    ckt.add(Capacitor::new(out, ckt.ground(), 40e-15));
    ckt.add(Diode::new(out, ckt.ground(), 1e-15));
    ckt.add(CommitCounter {
        commits: Arc::clone(commits),
    });
    ckt
}

#[test]
fn rejected_steps_never_commit_device_state() {
    let commits = Arc::new(AtomicU64::new(0));
    let mut ckt = diode_clamp_circuit(&commits);

    let opts = TransientOpts::new(5e-12, 6e-9).with_step_control(StepControl::adaptive());
    let res = Transient::new(opts).run(&mut ckt).unwrap();

    assert!(
        res.step_stats().rejected > 0,
        "diode turn-on should reject at least one grown step"
    );
    assert_eq!(
        commits.load(Ordering::Relaxed),
        res.step_stats().accepted,
        "every accepted step commits exactly once; rejected steps never do"
    );
}

fn sliver_circuit() -> Circuit {
    let mut ckt = Circuit::new();
    let drv = ckt.node("drv");
    let out = ckt.node("out");
    ckt.pin(
        drv,
        "VDRV",
        Waveform::pwl(vec![
            (0.0, 0.0),
            (0.5e-9, 0.8),
            (0.5e-9 + 1e-15, 0.8), // 1 fs sliver segment
            (1.0e-9, 0.0),
        ]),
    )
    .unwrap();
    ckt.add(Resistor::new(drv, out, 1e3));
    ckt.add(Capacitor::new(out, ckt.ground(), 10e-15));
    ckt
}

#[test]
fn sliver_segment_below_dt_min_does_not_underflow() {
    // The 1 fs breakpoint segment is far below `dt_min` (= dt × 1e-6 here).
    // Historically a segment shorter than `dt × 1e-3` could enter the
    // attempt loop with a sub-floor step and spuriously report
    // `StepSizeUnderflow`. Both policies must step through it.
    for step in [StepControl::Fixed, StepControl::adaptive()] {
        let mut ckt = sliver_circuit();
        let opts = TransientOpts::new(1e-12, 2e-9).with_step_control(step);
        let res = Transient::new(opts).run(&mut ckt);
        assert!(res.is_ok(), "sliver segment must not underflow: {res:?}");
    }
}

#[test]
fn newton_settings_builder_reaches_the_solver() {
    let (mut ckt, _) = rc_pulse_circuit();
    let loose = NewtonSettings::new()
        .with_tolerances(1e-2, 1e-3, 1e-9)
        .with_max_iters(40);
    assert_eq!(loose.max_iters, 40);
    let opts = TransientOpts::new(10e-12, 2e-9).with_newton(loose);
    let res = Transient::new(opts).run(&mut ckt).unwrap();
    assert!(res.step_stats().newton_iters > 0);

    // Defaults are unchanged by the builder redesign.
    let d = NewtonSettings::default();
    assert_eq!(d.reltol, 1e-4);
    assert_eq!(d.abstol_v, 1e-6);
    assert_eq!(d.abstol_i, 1e-12);
    assert_eq!(d.max_iters, 120);
}

#[test]
fn adaptive_never_grows_past_dt_max() {
    let (mut ckt, out) = rc_pulse_circuit();
    let opts = TransientOpts::new(10e-12, 8e-9)
        .with_step_control(StepControl::Adaptive {
            trtol: 1e-3,
            dt_min: 0.0,
            dt_max: 40e-12, // only 4× the base step
        })
        .record_nodes([out]);
    let res = Transient::new(opts).run(&mut ckt).unwrap();
    let times = res.times();
    let max_dt = times.windows(2).map(|w| w[1] - w[0]).fold(0.0, f64::max);
    assert!(
        max_dt <= 40e-12 * (1.0 + 1e-9),
        "step grew to {max_dt:e} past dt_max"
    );
}
