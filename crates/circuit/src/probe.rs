//! Transient results: traces, measurements, step statistics and energy
//! reports.

use std::sync::Arc;

use crate::circuit::{Circuit, PinId};
use crate::error::CircuitError;
use crate::name::{Name, Names};
use crate::node::NodeId;
use crate::stamp::CommitCtx;

/// Defines a counter family from one list of field names: a `Copy`
/// snapshot struct of `pub u64` counters and a matching atomic ledger.
///
/// ```
/// ftcam_circuit::counters! {
///     /// Work done by some stage.
///     pub struct Work, ledger WorkLedger {
///         /// Items processed.
///         items,
///         /// Nanoseconds spent.
///         nanos,
///     }
/// }
///
/// static LEDGER: WorkLedger = WorkLedger::new();
/// let before = LEDGER.snapshot();
/// LEDGER.add(Work { items: 3, nanos: 40 });
/// assert_eq!(LEDGER.snapshot().since(&before), Work { items: 3, nanos: 40 });
/// ```
///
/// The snapshot keeps the fields in the listed order and derives `Debug`,
/// `Clone`, `Copy`, `Default`, `PartialEq`, `Eq`, `Serialize` and
/// `Deserialize` (the calling crate needs `serde`), plus `since`
/// (counter-wise difference), `Add`, `AddAssign` and `Sum`. The ledger has
/// one `pub` `AtomicU64` per counter, `const fn new` (usable in a
/// `static`), `add(snapshot)` and `snapshot()`; every access is `Relaxed`,
/// so a snapshot taken while other threads add may mix counters from
/// different instants.
#[macro_export]
macro_rules! counters {
    // Attributes are matched as raw token trees rather than `meta`
    // fragments, so derive macros that parse tokens by hand see ordinary
    // `#[...]` groups.
    (
        $(#[$($meta:tt)*])*
        pub struct $name:ident, ledger $ledger:ident {
            $( $(#[$($field_meta:tt)*])* $field:ident ),+ $(,)?
        }
    ) => {
        $(#[$($meta)*])*
        #[derive(
            Debug, Clone, Copy, Default, PartialEq, Eq, ::serde::Serialize, ::serde::Deserialize,
        )]
        pub struct $name {
            $( $(#[$($field_meta)*])* pub $field: u64, )+
        }

        impl $name {
            /// Counter-wise difference against an earlier snapshot.
            #[must_use]
            pub fn since(&self, earlier: &Self) -> Self {
                Self { $( $field: self.$field - earlier.$field, )+ }
            }
        }

        impl ::std::ops::AddAssign for $name {
            fn add_assign(&mut self, other: Self) {
                $( self.$field += other.$field; )+
            }
        }

        impl ::std::ops::Add for $name {
            type Output = Self;

            fn add(mut self, other: Self) -> Self {
                self += other;
                self
            }
        }

        impl ::std::iter::Sum for $name {
            fn sum<I: ::std::iter::Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::default(), |total, item| total + item)
            }
        }

        #[doc = concat!("Atomic running totals of [`", stringify!($name), "`] counters.")]
        #[derive(Debug, Default)]
        pub struct $ledger {
            $(
                #[doc = concat!("Running total of `", stringify!($field), "`.")]
                pub $field: ::std::sync::atomic::AtomicU64,
            )+
        }

        impl $ledger {
            /// A ledger with every counter at zero.
            pub const fn new() -> Self {
                Self { $( $field: ::std::sync::atomic::AtomicU64::new(0), )+ }
            }

            /// Adds every counter of `delta` to the running totals.
            pub fn add(&self, delta: $name) {
                $(
                    self.$field
                        .fetch_add(delta.$field, ::std::sync::atomic::Ordering::Relaxed);
                )+
            }

            /// The running totals now.
            pub fn snapshot(&self) -> $name {
                $name {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )+
                }
            }
        }
    };
}

counters! {
    /// Step-acceptance and iteration statistics of a transient run.
    ///
    /// Under [`crate::analysis::StepControl::Fixed`] every attempted step is
    /// either accepted or halved on Newton divergence (`rejected` stays 0);
    /// under the adaptive policy, steps whose estimated truncation error
    /// exceeds the tolerance are counted in `rejected` and retried smaller.
    pub struct StepStats, ledger StepLedger {
        /// Steps accepted (device state committed, sample recorded).
        accepted,
        /// Converged solves rejected by the truncation-error test.
        rejected,
        /// Step halvings forced by Newton divergence.
        halvings,
        /// Newton iterations across all attempts (accepted or not).
        newton_iters,
    }
}

counters! {
    /// Recovery-ladder statistics of a transient run.
    ///
    /// Counts how often the transient engine had to escalate past a plain
    /// Newton solve, and which rung of the ladder (gmin escalation → damped
    /// Newton → step halving, see `DESIGN.md` §6) succeeded. Also counts
    /// analyses whose sparse LU rejected a pivot — a linear-solver event,
    /// not a ladder rung, but operationally the same kind of "the solver
    /// had to bail itself out" event. All-zero on a healthy run; nonzero
    /// counters on a run that still produced a result mean the ladder
    /// absorbed solver trouble.
    pub struct RecoveryStats, ledger RecoveryLedger {
        /// Retries that converged under an escalated `gmin` shunt.
        gmin_retries,
        /// Retries that converged under tightened Newton damping.
        damped_retries,
        /// Solves rejected because the Newton update went non-finite
        /// (NaN/Inf), before any retry.
        nonfinite,
        /// Accepted steps that needed any recovery (ladder retry or halving).
        recovered_steps,
        /// Analyses whose no-pivot sparse LU rejected a pivot, at most one
        /// per analysis (`SystemMatrix::rejected_pivot`). Each rejection
        /// is a `SingularMatrix` error that the ladder or the DC homotopy
        /// handles. The name predates the removal of the dense-LU fallback
        /// and is kept because the benchmark reads it.
        dense_demotions,
    }
}

impl RecoveryStats {
    /// `true` if no recovery of any kind was needed.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

counters! {
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
    pub struct SolverPerf, ledger SolverLedger {
        /// Numeric LU factorisations computed.
        factorizations,
        /// Triangular substitutions (every linear solve performs one; a solve
        /// served from stored factors performs *only* this).
        substitutions,
        /// Newton iterations solved against frozen factors (chord iterations
        /// plus whole-step LU bypasses).
        lu_bypasses,
        /// Static-device baselines stamped in full into a cleared matrix:
        /// one per new `(dt, method, gmin)` key or matrix structure change,
        /// and one per time point when a timed switch is present or the
        /// `incremental` layer is off.
        baseline_snapshots,
        /// Newton iterations that started from a restored baseline matrix
        /// instead of a full restamp, including first iterations that
        /// restored the cached matrix and restamped only the right-hand
        /// side.
        baseline_reuses,
        /// Assembly passes served by tape replay (pure `values[slot] += v`
        /// writes, zero hashing).
        tape_replays,
        /// Tape replays abandoned mid-pass because the write pattern diverged
        /// from the recording (the pass degrades to hash adds and re-records).
        tape_mismatches,
    }
}

impl SolverPerf {
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

// Process-wide totals of every analysis since process start. Each
// analysis adds its counters once, at its exit (error exits included);
// a rejected pivot is added from the analysis's own matrix there, so it
// is counted exactly once.
pub(crate) static STEPS: StepLedger = StepLedger::new();
pub(crate) static RECOVERY: RecoveryLedger = RecoveryLedger::new();
pub(crate) static SOLVER: SolverLedger = SolverLedger::new();

/// Process-wide cumulative step statistics, summed over every transient
/// run since process start.
///
/// Harnesses snapshot this before and after a workload and diff with
/// [`StepStats::since`] to report solver effort without threading a
/// counter through every layer. Counts from concurrent transients all land
/// here, so deltas taken around a workload include any simulation running
/// on other threads in the same interval.
pub fn global_step_stats() -> StepStats {
    STEPS.snapshot()
}

/// Process-wide cumulative recovery statistics — the [`RecoveryStats`]
/// counterpart of [`global_step_stats`], with the same snapshot-and-diff
/// usage. Rejected pivots (`dense_demotions`) include those of DC
/// operating points.
pub fn global_recovery_stats() -> RecoveryStats {
    RECOVERY.snapshot()
}

/// Process-wide cumulative solver hot-path counters (transient and DC) —
/// the [`SolverPerf`] counterpart of [`global_step_stats`], with the same
/// snapshot-and-diff usage.
pub fn global_solver_stats() -> SolverPerf {
    SOLVER.snapshot()
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
    name: &'a Name,
}

impl<'a> Trace<'a> {
    /// Signal name, rendered.
    pub fn name(&self) -> String {
        self.name.to_string()
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
///
/// Recorded nodes and pins are read by id with
/// [`TransientResult::node_trace`] and [`TransientResult::pin_energy_in`],
/// which render and hash nothing; the row and array testbenches read them
/// so. The label-based reads ([`TransientResult::trace`],
/// [`TransientResult::supply_energy`],
/// [`TransientResult::supply_energy_in`]) serve hand-written netlists and
/// tests: they compare the rendered names of the circuit, which the result
/// shares rather than copies, one by one. [`TransientResult::pin_labels`]
/// and [`Trace::name`] render names.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    node_ids: Vec<NodeId>,
    voltages: Vec<Vec<f64>>,
    names: Arc<Names>,
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
        Self {
            times: Vec::new(),
            node_ids: recorded.to_vec(),
            voltages: vec![Vec::new(); recorded.len()],
            names: Arc::clone(circuit.names()),
            pin_energy_traces: vec![Vec::new(); circuit.pin_count()],
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

    /// Worst free-node KCL residual `|z − A·x|` (amps) over the accepted
    /// steps, each of the last Newton load (`A`, `z`) at the accepted `x` —
    /// an internal consistency figure; large values indicate a solver
    /// problem.
    pub fn max_kcl_residual(&self) -> f64 {
        self.max_kcl_residual
    }

    /// The trace of the `k`-th recorded node.
    fn recorded(&self, k: usize) -> Trace<'_> {
        Trace {
            times: &self.times,
            values: &self.voltages[k],
            name: &self.names.nodes[self.node_ids[k].index()],
        }
    }

    /// Voltage trace of a recorded node.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownTrace`] if the node was not recorded.
    pub fn node_trace(&self, node: NodeId) -> Result<Trace<'_>, CircuitError> {
        match self.node_ids.iter().position(|&id| id == node) {
            Some(k) => Ok(self.recorded(k)),
            None => Err(CircuitError::UnknownTrace(
                self.names
                    .nodes
                    .get(node.index())
                    .map_or_else(|| node.to_string(), Name::to_string),
            )),
        }
    }

    /// Voltage trace of a recorded node, by name.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnknownTrace`] if the node was not recorded.
    pub fn trace(&self, node: &str) -> Result<Trace<'_>, CircuitError> {
        self.node_ids
            .iter()
            .rposition(|id| self.names.nodes[id.index()] == *node)
            .map(|k| self.recorded(k))
            .ok_or_else(|| CircuitError::UnknownTrace(node.to_string()))
    }

    /// Energy delivered by pin `p` over the whole run: the last sample of
    /// its cumulative trace.
    fn pin_total(&self, p: usize) -> f64 {
        self.pin_energy_traces[p].last().copied().unwrap_or(0.0)
    }

    fn pin_index(&self, label: &str) -> Result<usize, CircuitError> {
        self.names
            .pins
            .iter()
            .rposition(|l| *l == *label)
            .ok_or_else(|| CircuitError::UnknownTrace(label.to_string()))
    }

    /// Energy delivered by a pinned source within `[t0, t1]` (joules).
    ///
    /// # Panics
    ///
    /// Panics if `pin` does not belong to the circuit that ran.
    pub fn pin_energy_in(&self, pin: PinId, t0: f64, t1: f64) -> f64 {
        let p = pin.index();
        let trace = Trace {
            times: &self.times,
            values: &self.pin_energy_traces[p],
            name: &self.names.pins[p],
        };
        trace.value_at(t1) - trace.value_at(t0)
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
        Ok(self.pin_energy_in(PinId(p as u32), t0, t1))
    }

    /// Sum of the energies delivered by all pinned sources (joules).
    pub fn total_supply_energy(&self) -> f64 {
        (0..self.pin_energy_traces.len())
            .map(|p| self.pin_total(p))
            .sum()
    }

    /// Sum over all pins of the energy delivered within `[t0, t1]`.
    pub fn total_supply_energy_in(&self, t0: f64, t1: f64) -> f64 {
        (0..self.pin_energy_traces.len())
            .map(|p| self.pin_energy_in(PinId(p as u32), t0, t1))
            .sum()
    }

    /// Labels of all pinned sources, rendered, in pin order.
    pub fn pin_labels(&self) -> Vec<String> {
        self.names.pins.iter().map(Name::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static T: Name = Name::new("t");

    fn trace<'a>(times: &'a [f64], values: &'a [f64]) -> Trace<'a> {
        Trace {
            times,
            values,
            name: &T,
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

    crate::counters! {
        /// A test-local counter family.
        pub struct Tally, ledger TallyLedger {
            /// First counter.
            alpha,
            /// Second counter.
            beta,
            /// Third counter.
            gamma,
        }
    }

    fn tally(alpha: u64, beta: u64, gamma: u64) -> Tally {
        Tally { alpha, beta, gamma }
    }

    #[test]
    fn counters_since_undoes_add() {
        let (a, b) = (tally(1, 20, 300), tally(4, 0, 7));
        assert_eq!((a + b).since(&a), b);
    }

    #[test]
    fn counters_ledger_round_trips() {
        let ledger = TallyLedger::new();
        assert_eq!(ledger.snapshot(), Tally::default());
        let delta = tally(2, 3, 5);
        ledger.add(delta);
        assert_eq!(ledger.snapshot(), delta);
        ledger.add(delta);
        assert_eq!(ledger.snapshot(), delta + delta);
    }

    #[test]
    fn counters_sum_equals_repeated_add_assign() {
        let records: Vec<Tally> = (0..5).map(|k| tally(k, k * k, 10 - k)).collect();
        let mut total = Tally::default();
        for r in &records {
            total += *r;
        }
        assert_eq!(records.into_iter().sum::<Tally>(), total);
    }

    fn field_names<T: serde::Serialize>(value: &T) -> Vec<String> {
        let v = value.to_value();
        let map = v.as_map().expect("counters serialise as a map");
        map.iter().map(|(k, _)| k.clone()).collect()
    }

    #[test]
    fn counters_serialise_fields_in_declared_order() {
        let t = tally(1, 2, 3);
        assert_eq!(field_names(&t), ["alpha", "beta", "gamma"]);
        let back: Tally = serde::Deserialize::from_value(&serde::Serialize::to_value(&t)).unwrap();
        assert_eq!(back, t);
        // The simulator families keep their pre-macro wire format.
        assert_eq!(
            field_names(&StepStats::default()),
            ["accepted", "rejected", "halvings", "newton_iters"]
        );
        assert_eq!(
            field_names(&RecoveryStats::default()),
            [
                "gmin_retries",
                "damped_retries",
                "nonfinite",
                "recovered_steps",
                "dense_demotions"
            ]
        );
        assert_eq!(
            field_names(&SolverPerf::default()),
            [
                "factorizations",
                "substitutions",
                "lu_bypasses",
                "baseline_snapshots",
                "baseline_reuses",
                "tape_replays",
                "tape_mismatches"
            ]
        );
    }

    #[test]
    fn trapezoidal_integral() {
        let t = [0.0, 1.0, 2.0];
        let v = [0.0, 1.0, 0.0];
        let tr = trace(&t, &v);
        assert!((tr.integral() - 1.0).abs() < 1e-12);
    }
}
