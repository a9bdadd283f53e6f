//! The simulator's counters, read from what each layer exposes: a row
//! testbench's cumulative counters, an artefact's `ExecStats`, or the
//! process-wide totals around a call that exposes neither.

use std::ops::AddAssign;

use ftcam_cells::RowTestbench;
use ftcam_circuit::{
    global_recovery_stats, global_solver_stats, global_step_stats, RecoveryStats, SolverPerf,
    StepStats,
};
use ftcam_core::ExecStats;

use crate::report::Report;

/// A snapshot (or difference, or sum) of the three simulator counter
/// families.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    steps: StepStats,
    recovery: RecoveryStats,
    solver: SolverPerf,
}

impl Counters {
    /// The process-wide counters now.
    pub fn now() -> Self {
        Self {
            steps: global_step_stats(),
            recovery: global_recovery_stats(),
            solver: global_solver_stats(),
        }
    }

    /// Everything `tb` has run since it was built.
    pub fn of_testbench(tb: &RowTestbench) -> Self {
        Self {
            steps: tb.step_stats(),
            recovery: tb.recovery_stats(),
            solver: tb.solver_perf(),
        }
    }

    /// The simulator work of one artefact.
    pub fn of_exec(exec: &ExecStats) -> Self {
        Self {
            steps: exec.steps,
            recovery: exec.recovery,
            solver: exec.solver,
        }
    }

    /// The work done since `earlier` was taken.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            steps: self.steps.since(&earlier.steps),
            recovery: self.recovery.since(&earlier.recovery),
            solver: self.solver.since(&earlier.solver),
        }
    }

    /// Reports the `circuit.*` counts and ratios.
    pub fn report(&self, report: &mut Report) {
        let s = &self.steps;
        report.metric("circuit.accepted_steps", s.accepted as f64, "count");
        report.metric("circuit.newton_iters", s.newton_iters as f64, "count");
        report.metric(
            "circuit.newton_per_step",
            s.newton_iters as f64 / s.accepted.max(1) as f64,
            "ratio",
        );
        report.metric(
            "circuit.factorizations",
            self.solver.factorizations as f64,
            "count",
        );
        report.metric(
            "circuit.lu_bypass_ratio",
            self.solver.bypass_rate(),
            "ratio",
        );
        report.metric(
            "circuit.tape_replays",
            self.solver.tape_replays as f64,
            "count",
        );
        report.metric(
            "circuit.tape_mismatches",
            self.solver.tape_mismatches as f64,
            "count",
        );
        report.metric(
            "circuit.recovered_steps",
            self.recovery.recovered_steps as f64,
            "count",
        );
        report.metric(
            "circuit.dense_demotions",
            self.recovery.dense_demotions as f64,
            "count",
        );
    }
}

impl AddAssign for Counters {
    fn add_assign(&mut self, other: Counters) {
        self.steps += other.steps;
        self.recovery += other.recovery;
        self.solver += other.solver;
    }
}
