//! Experiment drivers — one per table/figure of the reconstructed
//! evaluation (see `DESIGN.md` §4).
//!
//! Every module exposes a `Params` type with two presets (`Default`
//! ≈ smoke-test scale, `Params::full()` ≈ paper scale) and a
//! `run(&Evaluator, &Params) -> Result<…, CellError>` entry point.
//! [`run_by_id`] provides uniform string dispatch for the `experiments`
//! binary and perfbench.

use std::time::Instant;

use ftcam_cells::CellError;

use crate::exec::ExecStats;
use crate::report::Artifact;
use crate::Evaluator;

pub mod e01_hysteresis;
pub mod e02_transients;
pub mod e03_cell_table;
pub mod e04_energy_width;
pub mod e05_delay_width;
pub mod e06_energy_hamming;
pub mod e07_variation;
pub mod e08_lowswing;
pub mod e09_array_table;
pub mod e10_workloads;
pub mod e11_write;
pub mod e12_ablation;
pub mod e13_standby;
pub mod e14_temperature;
pub mod e15_multibit;
pub mod e16_retention;

/// Activity factor assumed when converting SL-gated designs' toggle-based
/// search-line cost into a per-search figure without a concrete query
/// stream: on average half the definite lines change between random
/// queries. Workload experiments (fig9) use measured toggle statistics
/// instead.
pub const DEFAULT_SL_TOGGLE_ACTIVITY: f64 = 0.5;

/// The experiment ids in paper order; `table4`/`fig11`/`fig12` are
/// extension experiments beyond the reconstructed core set (see
/// `DESIGN.md` §4).
pub const ALL_IDS: [&str; 16] = [
    "fig2", "fig3", "table1", "fig4", "fig5", "fig6", "fig7", "fig8", "table2", "fig9", "fig10",
    "table3", "table4", "fig11", "fig12", "fig13",
];

/// Runs one experiment driver under instrumentation: the returned artifact
/// carries an [`ExecStats`] delta covering exactly this invocation — jobs
/// executed, per-phase executor time, calibration-cache activity, solver
/// step/recovery counters and total wall-clock.
///
/// This is the wrapper [`run_by_id`] applies to the built-in experiments;
/// it is public so out-of-crate drivers (e.g. the `ftcam-engine` replay
/// experiment) attach identical telemetry.
///
/// # Errors
///
/// Propagates whatever `f` returns.
pub fn instrumented(
    eval: &Evaluator,
    f: impl FnOnce(&Evaluator) -> Result<Artifact, CellError>,
) -> Result<Artifact, CellError> {
    let cache_before = eval.calibrations().stats();
    let exec_before = eval.exec_counters().snapshot();
    let steps_before = ftcam_circuit::global_step_stats();
    let recovery_before = ftcam_circuit::global_recovery_stats();
    let solver_before = ftcam_circuit::global_solver_stats();
    let started = Instant::now();
    let mut artifact = f(eval)?;
    let wall_nanos = started.elapsed().as_nanos() as u64;
    let exec = eval.exec_counters().snapshot().since(&exec_before);
    artifact.set_exec(ExecStats {
        threads: eval.threads(),
        jobs: exec.jobs,
        run_nanos: exec.run_nanos,
        assemble_nanos: exec.assemble_nanos,
        cache: eval.calibrations().stats().since(&cache_before),
        steps: ftcam_circuit::global_step_stats().since(&steps_before),
        recovery: ftcam_circuit::global_recovery_stats().since(&recovery_before),
        solver: ftcam_circuit::global_solver_stats().since(&solver_before),
        wall_nanos,
    });
    Ok(artifact)
}

/// Runs one experiment by id with its quick (default) or full preset,
/// [`instrumented`].
///
/// # Errors
///
/// Returns [`CellError::InvalidParameter`] for an unknown id, and
/// propagates simulation failures.
pub fn run_by_id(eval: &Evaluator, id: &str, full: bool) -> Result<Artifact, CellError> {
    instrumented(eval, |eval| dispatch_by_id(eval, id, full))
}

fn dispatch_by_id(eval: &Evaluator, id: &str, full: bool) -> Result<Artifact, CellError> {
    macro_rules! dispatch {
        ($module:ident) => {{
            let params = if full {
                $module::Params::full()
            } else {
                $module::Params::default()
            };
            $module::run(eval, &params)
        }};
    }
    match id {
        "fig2" => dispatch!(e01_hysteresis),
        "fig3" => dispatch!(e02_transients),
        "table1" => dispatch!(e03_cell_table),
        "fig4" => dispatch!(e04_energy_width),
        "fig5" => dispatch!(e05_delay_width),
        "fig6" => dispatch!(e06_energy_hamming),
        "fig7" => dispatch!(e07_variation),
        "fig8" => dispatch!(e08_lowswing),
        "table2" => dispatch!(e09_array_table),
        "fig9" => dispatch!(e10_workloads),
        "fig10" => dispatch!(e11_write),
        "table3" => dispatch!(e12_ablation),
        "table4" => dispatch!(e13_standby),
        "fig11" => dispatch!(e14_temperature),
        "fig12" => dispatch!(e15_multibit),
        "fig13" => dispatch!(e16_retention),
        other => Err(CellError::InvalidParameter(format!(
            "unknown experiment id `{other}` (known: {})",
            ALL_IDS.join(", ")
        ))),
    }
}

/// Per-search row energy including a toggle-adjusted SL component for
/// SL-gated designs (shared by several experiments).
pub(crate) fn row_energy_with_sl(
    calib: &ftcam_array::RowCalibration,
    k: usize,
    toggle_activity: f64,
) -> f64 {
    let base = calib.row_energy(k);
    if calib.sl_gated {
        base + toggle_activity * calib.width as f64 * calib.e_sl_per_definite_bit
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_id_is_rejected() {
        let eval = Evaluator::quick();
        let err = run_by_id(&eval, "fig99", false);
        assert!(matches!(err, Err(CellError::InvalidParameter(_))));
    }

    #[test]
    fn all_ids_are_unique() {
        let mut ids = ALL_IDS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL_IDS.len());
    }

    #[test]
    fn run_by_id_attaches_exec_stats() {
        let eval = Evaluator::quick().with_threads(2);
        let artifact = run_by_id(&eval, "table1", false).unwrap();
        let stats = artifact.exec().expect("exec stats attached");
        assert_eq!(stats.threads, 2);
        assert!(
            stats.jobs > 0,
            "driver must route work through the executor"
        );
        assert!(stats.cache.calibrations > 0, "table1 calibrates rows");
        assert!(stats.wall_nanos > 0);
        // A second run of the same experiment hits the warm cache: no new
        // calibrations, and the delta covers only this run.
        let again = run_by_id(&eval, "table1", false).unwrap();
        let stats2 = again.exec().expect("exec stats attached");
        assert_eq!(stats2.cache.calibrations, 0);
        assert_eq!(stats2.cache.hits, stats.cache.calibrations);
        assert_eq!(stats2.jobs, stats.jobs);
    }
}
