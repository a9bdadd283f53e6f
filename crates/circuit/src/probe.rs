//! Transient results: traces, measurements, step statistics and energy
//! reports.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::node::NodeId;
use crate::stamp::CommitCtx;

/// Step-acceptance and iteration statistics of a transient run.
///
/// Under [`crate::analysis::StepControl::Fixed`] every attempted step is
/// either accepted or halved on Newton divergence (`rejected` stays 0);
/// under the adaptive policy, steps whose estimated truncation error
/// exceeds the tolerance are counted in `rejected` and retried smaller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepStats {
    /// Steps accepted (device state committed, sample recorded).
    pub accepted: u64,
    /// Converged solves rejected by the truncation-error test.
    pub rejected: u64,
    /// Step halvings forced by Newton divergence.
    pub halvings: u64,
    /// Newton iterations across all attempts (accepted or not).
    pub newton_iters: u64,
}

impl StepStats {
    /// Counter-wise difference against an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &StepStats) -> StepStats {
        StepStats {
            accepted: self.accepted - earlier.accepted,
            rejected: self.rejected - earlier.rejected,
            halvings: self.halvings - earlier.halvings,
            newton_iters: self.newton_iters - earlier.newton_iters,
        }
    }

    /// Total Newton-converged solve attempts (accepted + rejected).
    #[must_use]
    pub fn attempts(&self) -> u64 {
        self.accepted + self.rejected
    }
}

impl std::ops::AddAssign for StepStats {
    fn add_assign(&mut self, other: Self) {
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.halvings += other.halvings;
        self.newton_iters += other.newton_iters;
    }
}

impl std::ops::Add for StepStats {
    type Output = StepStats;

    fn add(mut self, other: Self) -> StepStats {
        self += other;
        self
    }
}

static GLOBAL_ACCEPTED: AtomicU64 = AtomicU64::new(0);
static GLOBAL_REJECTED: AtomicU64 = AtomicU64::new(0);
static GLOBAL_HALVINGS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_NEWTON_ITERS: AtomicU64 = AtomicU64::new(0);

/// Process-wide cumulative step statistics, summed over every transient
/// run since process start.
///
/// Harnesses snapshot this before and after a workload and diff with
/// [`StepStats::since`] to report solver effort without threading a
/// counter through every layer. Counts from concurrent transients all land
/// here, so deltas taken around a workload include any simulation running
/// on other threads in the same interval.
pub fn global_step_stats() -> StepStats {
    StepStats {
        accepted: GLOBAL_ACCEPTED.load(Ordering::Relaxed),
        rejected: GLOBAL_REJECTED.load(Ordering::Relaxed),
        halvings: GLOBAL_HALVINGS.load(Ordering::Relaxed),
        newton_iters: GLOBAL_NEWTON_ITERS.load(Ordering::Relaxed),
    }
}

pub(crate) fn record_global_steps(stats: StepStats) {
    GLOBAL_ACCEPTED.fetch_add(stats.accepted, Ordering::Relaxed);
    GLOBAL_REJECTED.fetch_add(stats.rejected, Ordering::Relaxed);
    GLOBAL_HALVINGS.fetch_add(stats.halvings, Ordering::Relaxed);
    GLOBAL_NEWTON_ITERS.fetch_add(stats.newton_iters, Ordering::Relaxed);
}

/// Recovery-ladder statistics of a transient run.
///
/// Counts how often the transient engine had to escalate past a plain
/// Newton solve, and which rung of the ladder (gmin escalation → damped
/// Newton → step halving, see `DESIGN.md` §6) succeeded. Also counts
/// sparse→dense matrix demotions — technically a linear-solver fallback,
/// not a ladder rung, but operationally the same kind of "the solver had
/// to bail itself out" event. All-zero on a healthy run; nonzero counters
/// on a run that still produced a result mean the ladder absorbed solver
/// trouble.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Retries that converged under an escalated `gmin` shunt.
    pub gmin_retries: u64,
    /// Retries that converged under tightened Newton damping.
    pub damped_retries: u64,
    /// Solves rejected because the Newton update went non-finite
    /// (NaN/Inf), before any retry.
    pub nonfinite: u64,
    /// Accepted steps that needed any recovery (ladder retry or halving).
    pub recovered_steps: u64,
    /// Sparse→dense system-matrix demotions (no-pivot LU hit a bad pivot
    /// and the analysis permanently fell back to partial-pivot dense LU).
    pub dense_demotions: u64,
}

impl RecoveryStats {
    /// Counter-wise difference against an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &RecoveryStats) -> RecoveryStats {
        RecoveryStats {
            gmin_retries: self.gmin_retries - earlier.gmin_retries,
            damped_retries: self.damped_retries - earlier.damped_retries,
            nonfinite: self.nonfinite - earlier.nonfinite,
            recovered_steps: self.recovered_steps - earlier.recovered_steps,
            dense_demotions: self.dense_demotions - earlier.dense_demotions,
        }
    }

    /// Total ladder retries that converged (gmin + damped).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.gmin_retries + self.damped_retries
    }

    /// `true` if no recovery of any kind was needed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

impl std::ops::AddAssign for RecoveryStats {
    fn add_assign(&mut self, other: Self) {
        self.gmin_retries += other.gmin_retries;
        self.damped_retries += other.damped_retries;
        self.nonfinite += other.nonfinite;
        self.recovered_steps += other.recovered_steps;
        self.dense_demotions += other.dense_demotions;
    }
}

impl std::ops::Add for RecoveryStats {
    type Output = RecoveryStats;

    fn add(mut self, other: Self) -> RecoveryStats {
        self += other;
        self
    }
}

static GLOBAL_GMIN_RETRIES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_DAMPED_RETRIES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_NONFINITE: AtomicU64 = AtomicU64::new(0);
static GLOBAL_RECOVERED_STEPS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_DENSE_DEMOTIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide cumulative recovery statistics, summed over every
/// transient run since process start — the [`RecoveryStats`] counterpart
/// of [`global_step_stats`], with the same snapshot-and-diff usage.
pub fn global_recovery_stats() -> RecoveryStats {
    RecoveryStats {
        gmin_retries: GLOBAL_GMIN_RETRIES.load(Ordering::Relaxed),
        damped_retries: GLOBAL_DAMPED_RETRIES.load(Ordering::Relaxed),
        nonfinite: GLOBAL_NONFINITE.load(Ordering::Relaxed),
        recovered_steps: GLOBAL_RECOVERED_STEPS.load(Ordering::Relaxed),
        dense_demotions: GLOBAL_DENSE_DEMOTIONS.load(Ordering::Relaxed),
    }
}

/// Adds a transient run's ladder counters to the process-wide ledger.
///
/// `dense_demotions` is deliberately *not* added here: demotions are
/// recorded at the fallback site itself ([`record_global_demotion`]),
/// because they can also happen outside any transient run (DC operating
/// point) and must never be double-counted.
pub(crate) fn record_global_recovery(stats: RecoveryStats) {
    GLOBAL_GMIN_RETRIES.fetch_add(stats.gmin_retries, Ordering::Relaxed);
    GLOBAL_DAMPED_RETRIES.fetch_add(stats.damped_retries, Ordering::Relaxed);
    GLOBAL_NONFINITE.fetch_add(stats.nonfinite, Ordering::Relaxed);
    GLOBAL_RECOVERED_STEPS.fetch_add(stats.recovered_steps, Ordering::Relaxed);
}

/// Records one sparse→dense system-matrix demotion. Called from the
/// fallback site in [`crate::linalg::SystemMatrix::factor`].
pub(crate) fn record_global_demotion() {
    GLOBAL_DENSE_DEMOTIONS.fetch_add(1, Ordering::Relaxed);
}

/// Hot-path solver counters of the incremental-assembly Newton loop.
///
/// Where [`StepStats`] counts *what* the time-stepping engine did,
/// `SolverPerf` counts *how cheaply* each Newton iteration was served:
/// how many LU factorisations were actually computed versus how many
/// triangular substitutions were performed against stored factors (chord
/// Newton and per-step LU reuse make `substitutions > factorizations`),
/// how often per-`(time, dt)` baseline snapshots of the static devices
/// were reused instead of restamped, and how often slot-resolved stamp
/// tapes replaced hash-path assembly. With
/// [`crate::analysis::HotPath::legacy`] the bypass and tape counters stay
/// zero and every substitution has its own factorisation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverPerf {
    /// Numeric LU factorisations computed.
    pub factorizations: u64,
    /// Triangular substitutions (every linear solve performs one; a solve
    /// served from stored factors performs *only* this).
    pub substitutions: u64,
    /// Newton iterations solved against frozen factors (chord iterations
    /// plus whole-step LU bypasses).
    pub lu_bypasses: u64,
    /// Static-device baseline snapshots taken (one per `(time, dt,
    /// method)` point, plus one per matrix structure change).
    pub baseline_snapshots: u64,
    /// Newton iterations that started from a baseline restore instead of
    /// a full restamp.
    pub baseline_reuses: u64,
    /// Assembly passes served by tape replay (pure `values[slot] += v`
    /// writes, zero hashing).
    pub tape_replays: u64,
    /// Tape replays abandoned mid-pass because the write pattern diverged
    /// from the recording (the pass degrades to hash adds and re-records).
    pub tape_mismatches: u64,
}

impl SolverPerf {
    /// Counter-wise difference against an earlier snapshot.
    #[must_use]
    pub fn since(&self, earlier: &SolverPerf) -> SolverPerf {
        SolverPerf {
            factorizations: self.factorizations - earlier.factorizations,
            substitutions: self.substitutions - earlier.substitutions,
            lu_bypasses: self.lu_bypasses - earlier.lu_bypasses,
            baseline_snapshots: self.baseline_snapshots - earlier.baseline_snapshots,
            baseline_reuses: self.baseline_reuses - earlier.baseline_reuses,
            tape_replays: self.tape_replays - earlier.tape_replays,
            tape_mismatches: self.tape_mismatches - earlier.tape_mismatches,
        }
    }

    /// Fraction of linear solves served without a fresh factorisation
    /// (`lu_bypasses / substitutions`); 0.0 when nothing was solved.
    #[must_use]
    pub fn bypass_rate(&self) -> f64 {
        if self.substitutions == 0 {
            0.0
        } else {
            self.lu_bypasses as f64 / self.substitutions as f64
        }
    }
}

impl std::ops::AddAssign for SolverPerf {
    fn add_assign(&mut self, other: Self) {
        self.factorizations += other.factorizations;
        self.substitutions += other.substitutions;
        self.lu_bypasses += other.lu_bypasses;
        self.baseline_snapshots += other.baseline_snapshots;
        self.baseline_reuses += other.baseline_reuses;
        self.tape_replays += other.tape_replays;
        self.tape_mismatches += other.tape_mismatches;
    }
}

impl std::ops::Add for SolverPerf {
    type Output = SolverPerf;

    fn add(mut self, other: Self) -> SolverPerf {
        self += other;
        self
    }
}

static GLOBAL_FACTORIZATIONS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_SUBSTITUTIONS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_LU_BYPASSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_BASELINE_SNAPSHOTS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_BASELINE_REUSES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_TAPE_REPLAYS: AtomicU64 = AtomicU64::new(0);
static GLOBAL_TAPE_MISMATCHES: AtomicU64 = AtomicU64::new(0);

/// Process-wide cumulative solver hot-path counters — the [`SolverPerf`]
/// counterpart of [`global_step_stats`], with the same snapshot-and-diff
/// usage.
pub fn global_solver_stats() -> SolverPerf {
    SolverPerf {
        factorizations: GLOBAL_FACTORIZATIONS.load(Ordering::Relaxed),
        substitutions: GLOBAL_SUBSTITUTIONS.load(Ordering::Relaxed),
        lu_bypasses: GLOBAL_LU_BYPASSES.load(Ordering::Relaxed),
        baseline_snapshots: GLOBAL_BASELINE_SNAPSHOTS.load(Ordering::Relaxed),
        baseline_reuses: GLOBAL_BASELINE_REUSES.load(Ordering::Relaxed),
        tape_replays: GLOBAL_TAPE_REPLAYS.load(Ordering::Relaxed),
        tape_mismatches: GLOBAL_TAPE_MISMATCHES.load(Ordering::Relaxed),
    }
}

pub(crate) fn record_global_solver(stats: SolverPerf) {
    GLOBAL_FACTORIZATIONS.fetch_add(stats.factorizations, Ordering::Relaxed);
    GLOBAL_SUBSTITUTIONS.fetch_add(stats.substitutions, Ordering::Relaxed);
    GLOBAL_LU_BYPASSES.fetch_add(stats.lu_bypasses, Ordering::Relaxed);
    GLOBAL_BASELINE_SNAPSHOTS.fetch_add(stats.baseline_snapshots, Ordering::Relaxed);
    GLOBAL_BASELINE_REUSES.fetch_add(stats.baseline_reuses, Ordering::Relaxed);
    GLOBAL_TAPE_REPLAYS.fetch_add(stats.tape_replays, Ordering::Relaxed);
    GLOBAL_TAPE_MISMATCHES.fetch_add(stats.tape_mismatches, Ordering::Relaxed);
}

/// Signal edge direction for threshold-crossing measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Crossing from below to above the level.
    Rising,
    /// Crossing from above to below the level.
    Falling,
}

/// A borrowed view over one recorded signal.
///
/// Provides the waveform measurements the TCAM evaluation needs: threshold
/// crossings (search delay), windowed extrema (sense margin) and
/// interpolation.
#[derive(Debug, Clone, Copy)]
pub struct Trace<'a> {
    times: &'a [f64],
    values: &'a [f64],
    name: &'a str,
}

impl<'a> Trace<'a> {
    /// Signal name.
    pub fn name(&self) -> &str {
        self.name
    }

    /// Sample instants (seconds).
    pub fn times(&self) -> &'a [f64] {
        self.times
    }

    /// Sample values.
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The last recorded value.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn last_value(&self) -> f64 {
        *self.values.last().expect("trace has at least one sample")
    }

    /// Linear interpolation of the signal at time `t` (clamped to the ends).
    pub fn value_at(&self, t: f64) -> f64 {
        if self.times.is_empty() {
            return f64::NAN;
        }
        if t <= self.times[0] {
            return self.values[0];
        }
        if t >= *self.times.last().expect("non-empty") {
            return *self.values.last().expect("non-empty");
        }
        let idx = self.times.partition_point(|&x| x < t);
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        let (v0, v1) = (self.values[idx - 1], self.values[idx]);
        if t1 == t0 {
            v1
        } else {
            v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        }
    }

    /// First time the signal crosses `level` with the given edge, linearly
    /// interpolated between samples.
    pub fn cross(&self, level: f64, edge: Edge) -> Option<f64> {
        self.cross_after(level, edge, f64::NEG_INFINITY)
    }

    /// First crossing at or after `t_from`.
    pub fn cross_after(&self, level: f64, edge: Edge, t_from: f64) -> Option<f64> {
        for w in 0..self.times.len().saturating_sub(1) {
            let (t0, t1) = (self.times[w], self.times[w + 1]);
            if t1 < t_from {
                continue;
            }
            let (v0, v1) = (self.values[w], self.values[w + 1]);
            let hit = match edge {
                Edge::Rising => v0 < level && v1 >= level,
                Edge::Falling => v0 > level && v1 <= level,
            };
            if hit {
                let frac = if v1 == v0 {
                    1.0
                } else {
                    (level - v0) / (v1 - v0)
                };
                let t_cross = t0 + frac * (t1 - t0);
                if t_cross >= t_from {
                    return Some(t_cross);
                }
            }
        }
        None
    }

    /// Minimum value over the whole trace.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum value over the whole trace.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum value within `[t0, t1]`.
    pub fn min_in(&self, t0: f64, t1: f64) -> f64 {
        self.window_fold(t0, t1, f64::INFINITY, f64::min)
    }

    /// Maximum value within `[t0, t1]`.
    pub fn max_in(&self, t0: f64, t1: f64) -> f64 {
        self.window_fold(t0, t1, f64::NEG_INFINITY, f64::max)
    }

    fn window_fold(&self, t0: f64, t1: f64, init: f64, f: fn(f64, f64) -> f64) -> f64 {
        let mut acc = init;
        for (t, v) in self.times.iter().zip(self.values) {
            if *t >= t0 && *t <= t1 {
                acc = f(acc, *v);
            }
        }
        // Include interpolated endpoints for robustness on coarse sampling.
        acc = f(acc, self.value_at(t0));
        acc = f(acc, self.value_at(t1));
        acc
    }

    /// Trapezoidal integral of the signal over the whole trace.
    pub fn integral(&self) -> f64 {
        let mut acc = 0.0;
        for w in 0..self.times.len().saturating_sub(1) {
            acc +=
                0.5 * (self.values[w] + self.values[w + 1]) * (self.times[w + 1] - self.times[w]);
        }
        acc
    }
}

/// Result of a transient run: recorded traces plus energy accounting.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    node_ids: Vec<NodeId>,
    node_name_index: HashMap<String, usize>,
    voltages: Vec<Vec<f64>>,
    pin_labels: Vec<String>,
    pin_label_index: HashMap<String, usize>,
    /// Cumulative energy delivered by each pin, one sample per instant;
    /// the last sample is the run total.
    pin_energy_traces: Vec<Vec<f64>>,
    pub(crate) max_kcl_residual: f64,
    pub(crate) stats: StepStats,
    pub(crate) recovery: RecoveryStats,
    pub(crate) solver: SolverPerf,
}

impl TransientResult {
    /// An empty result recording the voltages of `recorded` and the
    /// cumulative energy of every pinned source of `circuit`.
    pub(crate) fn new(circuit: &Circuit, recorded: &[NodeId]) -> Self {
        let node_name_index = recorded
            .iter()
            .enumerate()
            .map(|(k, &id)| (circuit.node_name(id).to_string(), k))
            .collect();
        let pin_labels: Vec<String> = (0..circuit.pin_count())
            .map(|p| {
                circuit
                    .pin_label(crate::circuit::PinId(p as u32))
                    .to_string()
            })
            .collect();
        let pin_label_index = pin_labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.clone(), i))
            .collect();
        Self {
            times: Vec::new(),
            node_ids: recorded.to_vec(),
            node_name_index,
            voltages: vec![Vec::new(); recorded.len()],
            pin_label_index,
            pin_energy_traces: vec![Vec::new(); pin_labels.len()],
            pin_labels,
            max_kcl_residual: 0.0,
            stats: StepStats::default(),
            recovery: RecoveryStats::default(),
            solver: SolverPerf::default(),
        }
    }

    /// Records one instant: the recorded node voltages at `ctx` and each
    /// pin's cumulative energy.
    pub(crate) fn push_sample(&mut self, t: f64, ctx: &CommitCtx<'_>, pin_energy: &[f64]) {
        self.times.push(t);
        for (k, &node) in self.node_ids.iter().enumerate() {
            self.voltages[k].push(ctx.v(node));
        }
        for (p, &e) in pin_energy.iter().enumerate() {
            self.pin_energy_traces[p].push(e);
        }
    }

    /// Sample instants.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of accepted steps.
    pub fn steps(&self) -> usize {
        self.stats.accepted as usize
    }

    /// Converged solves rejected by the adaptive truncation-error test
    /// (always 0 under fixed stepping).
    pub fn rejected_steps(&self) -> usize {
        self.stats.rejected as usize
    }

    /// Total Newton iterations across the run.
    pub fn newton_iterations(&self) -> usize {
        self.stats.newton_iters as usize
    }

    /// The full step-acceptance and iteration statistics of the run.
    pub fn step_stats(&self) -> StepStats {
        self.stats
    }

    /// Recovery-ladder statistics of the run (all-zero when every step
    /// converged on the first Newton attempt).
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Hot-path solver counters of the run (factorisations vs
    /// substitutions, baseline and tape reuse).
    pub fn solver_perf(&self) -> SolverPerf {
        self.solver
    }

    /// Worst KCL residual observed at any free node (amps) — an internal
    /// consistency figure; large values indicate a solver problem.
    pub fn max_kcl_residual(&self) -> f64 {
        self.max_kcl_residual
    }

    /// Voltage trace of a recorded node, by name.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownTrace`] if the node was not recorded.
    pub fn trace(&self, node: &str) -> Result<Trace<'_>, CircuitError> {
        let (name, &k) = self
            .node_name_index
            .get_key_value(node)
            .ok_or_else(|| CircuitError::UnknownTrace(node.to_string()))?;
        Ok(Trace {
            times: &self.times,
            values: &self.voltages[k],
            name,
        })
    }

    /// Voltage trace of a recorded node, by id.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownTrace`] if the node was not recorded.
    pub fn trace_of(&self, node: NodeId) -> Result<Trace<'_>, CircuitError> {
        let k = self
            .node_ids
            .iter()
            .position(|&n| n == node)
            .ok_or_else(|| CircuitError::UnknownTrace(node.to_string()))?;
        Ok(Trace {
            times: &self.times,
            values: &self.voltages[k],
            name: "",
        })
    }

    /// Energy delivered by pin `p` over the whole run: the last sample of
    /// its cumulative trace.
    fn pin_total(&self, p: usize) -> f64 {
        self.pin_energy_traces[p].last().copied().unwrap_or(0.0)
    }

    fn pin_index(&self, label: &str) -> Result<usize, CircuitError> {
        self.pin_label_index
            .get(label)
            .copied()
            .ok_or_else(|| CircuitError::UnknownTrace(label.to_string()))
    }

    /// Total energy delivered by a pinned source over the run (joules).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownTrace`] for unknown pin labels.
    pub fn supply_energy(&self, label: &str) -> Result<f64, CircuitError> {
        Ok(self.pin_total(self.pin_index(label)?))
    }

    /// Energy delivered by a pinned source within `[t0, t1]` (joules).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownTrace`] for unknown pin labels.
    pub fn supply_energy_in(&self, label: &str, t0: f64, t1: f64) -> Result<f64, CircuitError> {
        let p = self.pin_index(label)?;
        let trace = Trace {
            times: &self.times,
            values: &self.pin_energy_traces[p],
            name: &self.pin_labels[p],
        };
        Ok(trace.value_at(t1) - trace.value_at(t0))
    }

    /// Sum of the energies delivered by all pinned sources (joules).
    pub fn total_supply_energy(&self) -> f64 {
        (0..self.pin_labels.len()).map(|p| self.pin_total(p)).sum()
    }

    /// Sum over all pins of the energy delivered within `[t0, t1]`.
    pub fn total_supply_energy_in(&self, t0: f64, t1: f64) -> f64 {
        self.pin_labels
            .iter()
            .map(|l| self.supply_energy_in(l, t0, t1).expect("label from self"))
            .sum()
    }

    /// Labels of all pinned sources.
    pub fn pin_labels(&self) -> &[String] {
        &self.pin_labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace<'a>(times: &'a [f64], values: &'a [f64]) -> Trace<'a> {
        Trace {
            times,
            values,
            name: "t",
        }
    }

    #[test]
    fn interpolation_and_clamping() {
        let t = [0.0, 1.0, 2.0];
        let v = [0.0, 1.0, 0.0];
        let tr = trace(&t, &v);
        assert_eq!(tr.value_at(-1.0), 0.0);
        assert_eq!(tr.value_at(0.5), 0.5);
        assert_eq!(tr.value_at(1.5), 0.5);
        assert_eq!(tr.value_at(5.0), 0.0);
        assert_eq!(tr.last_value(), 0.0);
    }

    #[test]
    fn crossing_detection() {
        let t = [0.0, 1.0, 2.0, 3.0];
        let v = [0.0, 1.0, 1.0, 0.0];
        let tr = trace(&t, &v);
        assert!((tr.cross(0.5, Edge::Rising).unwrap() - 0.5).abs() < 1e-12);
        assert!((tr.cross(0.5, Edge::Falling).unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(tr.cross(2.0, Edge::Rising), None);
        // cross_after skips the first crossing when starting later.
        assert_eq!(tr.cross_after(0.5, Edge::Rising, 0.6), None);
    }

    #[test]
    fn windowed_extrema_include_interpolated_endpoints() {
        let t = [0.0, 1.0, 2.0];
        let v = [0.0, 2.0, 0.0];
        let tr = trace(&t, &v);
        assert_eq!(tr.max_in(0.25, 0.75), 1.5);
        assert_eq!(tr.min_in(0.25, 0.75), 0.5);
        assert_eq!(tr.max(), 2.0);
        assert_eq!(tr.min(), 0.0);
    }

    #[test]
    fn trapezoidal_integral() {
        let t = [0.0, 1.0, 2.0];
        let v = [0.0, 1.0, 0.0];
        let tr = trace(&t, &v);
        assert!((tr.integral() - 1.0).abs() < 1e-12);
    }
}
