//! Smoke tests for the experiment drivers with miniature parameter sets —
//! every driver must produce a structurally valid artefact.

use ftcam::cells::DesignKind;
use ftcam::core::{experiments, Artifact, Evaluator};

#[test]
fn device_figure_runs() {
    let eval = Evaluator::quick();
    let params = experiments::e01_hysteresis::Params {
        steps: 24,
        ..Default::default()
    };
    let Artifact::Figure(fig) = experiments::e01_hysteresis::run(&eval, &params).unwrap() else {
        panic!("expected figure")
    };
    assert_eq!(fig.series.len(), 4);
    assert_eq!(fig.x.len(), 25);
}

#[test]
fn write_table_runs() {
    let eval = Evaluator::quick();
    let params = experiments::e11_write::Params {
        amplitudes: vec![4.0],
        pulse_widths: vec![],
        width: 2,
        design: DesignKind::FeFet2T,
    };
    let Artifact::Table(t) = experiments::e11_write::run(&eval, &params).unwrap() else {
        panic!("expected table")
    };
    assert_eq!(t.rows.len(), 1);
    assert_eq!(t.cell("4.0 V / 30 ns", "programmed ok"), Some(1.0));
}

#[test]
fn array_table_runs_and_serializes() {
    let eval = Evaluator::quick();
    let params = experiments::e09_array_table::Params {
        shapes: vec![(16, 8)],
        designs: vec![DesignKind::FeFet2T, DesignKind::EaFull],
    };
    let artifact = experiments::e09_array_table::run(&eval, &params).unwrap();
    // Round-trips through serde (what the experiments binary writes);
    // floating-point cells may differ by an ULP, so compare structure and
    // values with a tolerance.
    let json = serde_json::to_string(&artifact).unwrap();
    let back: Artifact = serde_json::from_str(&json).unwrap();
    let (Artifact::Table(a), Artifact::Table(b)) = (&artifact, &back) else {
        panic!("expected tables")
    };
    assert_eq!(a.id, b.id);
    assert_eq!(a.columns, b.columns);
    assert_eq!(a.rows.len(), b.rows.len());
    for (ra, rb) in a.rows.iter().zip(&b.rows) {
        assert_eq!(ra.label, rb.label);
        for (va, vb) in ra.values.iter().zip(&rb.values) {
            assert!((va - vb).abs() <= 1e-12 * va.abs().max(1.0));
        }
    }
}

#[test]
fn dispatch_covers_every_id() {
    // Only verify dispatch wiring (unknown ids error; known ids exist in
    // the registry) — running all sixteen here would double the suite time.
    assert_eq!(experiments::ALL_IDS.len(), 16);
    let eval = Evaluator::quick();
    assert!(experiments::run_by_id(&eval, "not-an-id", false).is_err());
}

#[test]
fn fig7_runs_one_executor_job_per_monte_carlo_sample() {
    let quick = experiments::e07_variation::Params::default();
    let expected = (quick.designs.len() * quick.sigmas.len() * quick.samples) as u64;
    assert_eq!(expected, 72);
    for threads in [1, 4] {
        let eval = Evaluator::quick().with_threads(threads);
        let mut artifact = experiments::run_by_id(&eval, "fig7", false).unwrap();
        let exec = artifact.clear_exec().expect("exec stats attached");
        assert_eq!(exec.jobs, expected, "threads = {threads}");
    }
}
