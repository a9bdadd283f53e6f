//! The headline guarantee of the parallel sweep engine: for every
//! experiment, the artefact produced with N worker threads is
//! bit-identical to the serial (threads = 1) run. Jobs are pure per
//! sweep item and assembly is item-ordered, so only the timing fields
//! of the attached exec stats may differ — those are stripped before
//! comparison.

use ftcam::core::{experiments, Evaluator};

/// A cross-section of drivers covering every executor pattern: plain
/// per-design fan-out (table1), flattened design×width grids with
/// skipped points (fig4), per-alpha sweeps (fig8), measurement triples
/// reassembled against a baseline (table3), and Monte-Carlo samples
/// flattened across (design, σ) points into one job list (fig7).
const IDS: [&str; 5] = ["table1", "fig4", "fig8", "table3", "fig7"];

#[test]
fn artifacts_are_bit_identical_for_any_thread_count() {
    for id in IDS {
        let serial_eval = Evaluator::quick().with_threads(1);
        let mut serial = experiments::run_by_id(&serial_eval, id, false)
            .unwrap_or_else(|e| panic!("{id} (serial) failed: {e}"));

        let parallel_eval = Evaluator::quick().with_threads(4);
        let mut parallel = experiments::run_by_id(&parallel_eval, id, false)
            .unwrap_or_else(|e| panic!("{id} (4 threads) failed: {e}"));

        // The calibration workload itself is deterministic even though
        // the hit/dedup-wait split between racing threads is not.
        let serial_exec = serial.clear_exec().expect("exec stats attached");
        let parallel_exec = parallel.clear_exec().expect("exec stats attached");
        assert_eq!(
            serial_exec.cache.calibrations, parallel_exec.cache.calibrations,
            "{id}: thread count changed how many rows were calibrated"
        );
        assert_eq!(
            serial_exec.jobs, parallel_exec.jobs,
            "{id}: job count diverged"
        );

        let serial_json = serde_json::to_string_pretty(&serial).expect("serialises");
        let parallel_json = serde_json::to_string_pretty(&parallel).expect("serialises");
        assert_eq!(
            serial_json, parallel_json,
            "{id}: parallel artefact differs from the serial reference"
        );
    }
}

#[test]
fn oversubscription_does_not_change_output() {
    // Far more threads than sweep items: the executor clamps the worker
    // count, and the artefact still matches the serial run.
    let serial_eval = Evaluator::quick().with_threads(1);
    let mut serial = experiments::run_by_id(&serial_eval, "fig2", false).unwrap();
    serial.clear_exec();

    let wide_eval = Evaluator::quick().with_threads(32);
    let mut wide = experiments::run_by_id(&wide_eval, "fig2", false).unwrap();
    wide.clear_exec();

    assert_eq!(
        serde_json::to_string_pretty(&serial).unwrap(),
        serde_json::to_string_pretty(&wide).unwrap()
    );
}
