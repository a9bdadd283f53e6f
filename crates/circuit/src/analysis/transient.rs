//! Transient analysis driver.

use std::collections::HashMap;

use crate::analysis::dc::solve_dc;
use crate::analysis::newton::{self, NewtonSettings, NewtonWorkspace};
use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::node::NodeId;
use crate::probe::{self, RecoveryStats, StepStats, TransientResult};
use crate::stamp::{CommitCtx, IntegrationMethod, VarKind, VarMap};

/// How the initial state of a transient is established.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum InitialState {
    /// Solve the DC operating point at `t = 0` (SPICE default).
    #[default]
    DcOperatingPoint,
    /// Skip the DC solve; free nodes start at 0 V (or the value given in
    /// the map) and devices honour their own initial conditions.
    UseInitialConditions(HashMap<NodeId, f64>),
}

/// Which signals are recorded sample-by-sample.
///
/// Per-source energy is always accumulated; this only controls node-voltage
/// traces (the dominant memory cost for Monte-Carlo sweeps).
#[derive(Debug, Clone, Default, PartialEq)]
pub enum RecordMode {
    /// Record every node voltage (default; convenient for debugging and
    /// waveform figures).
    #[default]
    AllNodes,
    /// Record only the listed nodes.
    Nodes(Vec<NodeId>),
    /// Record no node voltages (energy/current accounting only).
    None,
}

impl RecordMode {
    /// Records only the given nodes.
    ///
    /// Accepts anything iterable over [`NodeId`] — an array, a slice copy,
    /// a `Vec`, an iterator chain:
    ///
    /// ```
    /// use ftcam_circuit::{Circuit, analysis::RecordMode};
    ///
    /// let mut ckt = Circuit::new();
    /// let a = ckt.node("a");
    /// let b = ckt.node("b");
    /// let mode = RecordMode::nodes([a, b]);
    /// assert_eq!(mode, RecordMode::Nodes(vec![a, b]));
    /// ```
    pub fn nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        RecordMode::Nodes(nodes.into_iter().collect())
    }
}

/// Time-step control policy for a [`Transient`] run.
///
/// [`StepControl::Fixed`] (the default) takes the base step everywhere —
/// every run is bit-for-bit reproducible against the historical engine.
/// [`StepControl::Adaptive`] treats the base step as the accuracy
/// reference and *grows* the step across smooth waveform regions as long
/// as the estimated per-node local truncation error (LTE) stays below
/// `trtol`; a grown step whose LTE overshoots is rejected — before any
/// device state commits — and retried smaller, but never below the base
/// step. Sharp edges therefore cost exactly what fixed stepping pays,
/// while flat precharge/evaluate plateaus are crossed in a handful of
/// steps, which cuts the accepted step count by well over 2× on the TCAM
/// waveforms at sub-percent energy/delay error.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum StepControl {
    /// Take the base step everywhere (halving only on Newton failures,
    /// down to `base dt × 1e-6`).
    #[default]
    Fixed,
    /// Local-truncation-error-controlled growth above the base step.
    Adaptive {
        /// Truncation-error tolerance, dimensionless: the per-node LTE is
        /// held below `trtol × (0.1 V + |v|)` per step.
        trtol: f64,
        /// Newton-halving underflow floor (seconds); `0.0` derives
        /// `base dt × 1e-6`. LTE rejection never shrinks below the base
        /// step, only divergence halving can.
        dt_min: f64,
        /// Largest step (seconds); `0.0` derives `base dt × 64`.
        dt_max: f64,
    },
}

impl StepControl {
    /// Default truncation-error tolerance of [`StepControl::adaptive`].
    pub const DEFAULT_TRTOL: f64 = 1e-3;

    /// Default growth cap of the adaptive step over the base step, used
    /// when `dt_max` is left at `0.0`.
    pub const DEFAULT_GROWTH_CAP: f64 = 64.0;

    /// Adaptive control with the default tolerance and bounds derived from
    /// the base step (`dt_min = dt × 1e-6`, `dt_max = dt × 64`).
    pub fn adaptive() -> Self {
        StepControl::Adaptive {
            trtol: Self::DEFAULT_TRTOL,
            dt_min: 0.0,
            dt_max: 0.0,
        }
    }

    /// `true` for the adaptive policy.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, StepControl::Adaptive { .. })
    }
}

/// Options for a [`Transient`] run.
///
/// # Examples
///
/// The builder covers the step-control policy, Newton tolerances, recorded
/// nodes and initial conditions:
///
/// ```
/// use ftcam_circuit::analysis::{NewtonSettings, StepControl, TransientOpts};
/// use ftcam_circuit::Circuit;
///
/// let mut ckt = Circuit::new();
/// let out = ckt.node("out");
/// let opts = TransientOpts::new(10e-12, 4e-9)
///     .with_step_control(StepControl::adaptive())
///     .with_newton(NewtonSettings::new().with_tolerances(1e-4, 1e-6, 1e-12))
///     .with_initial_voltages([(out, 0.8)])
///     .record_nodes([out]);
/// assert!(opts.step.is_adaptive());
/// ```
#[derive(Debug, Clone)]
pub struct TransientOpts {
    /// Base time step (seconds).
    pub dt: f64,
    /// Stop time (seconds).
    pub t_stop: f64,
    /// Integration method for reactive companion models.
    pub method: IntegrationMethod,
    /// Initial-state policy.
    pub init: InitialState,
    /// Node-voltage recording policy.
    pub record: RecordMode,
    /// Step-control policy.
    pub step: StepControl,
    /// Newton tolerances.
    pub newton: NewtonSettings,
}

impl TransientOpts {
    /// Creates options with the given base step and stop time.
    pub fn new(dt: f64, t_stop: f64) -> Self {
        Self {
            dt,
            t_stop,
            method: IntegrationMethod::default(),
            init: InitialState::default(),
            record: RecordMode::default(),
            step: StepControl::Fixed,
            newton: NewtonSettings::default(),
        }
    }

    /// Uses trapezoidal integration instead of backward Euler.
    pub fn with_method(mut self, method: IntegrationMethod) -> Self {
        self.method = method;
        self
    }

    /// Starts from device initial conditions instead of a DC solve.
    pub fn use_initial_conditions(mut self) -> Self {
        self.init = InitialState::UseInitialConditions(HashMap::new());
        self
    }

    /// Starts from the given node voltages (implies *use initial
    /// conditions*). Accepts any iterable of `(node, volts)` pairs.
    pub fn with_initial_voltages<I>(mut self, voltages: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, f64)>,
    {
        self.init = InitialState::UseInitialConditions(voltages.into_iter().collect());
        self
    }

    /// Sets the node-voltage recording policy.
    pub fn with_record(mut self, record: RecordMode) -> Self {
        self.record = record;
        self
    }

    /// Records only the given nodes — shorthand for
    /// `with_record(RecordMode::nodes(...))`.
    pub fn record_nodes<I: IntoIterator<Item = NodeId>>(self, nodes: I) -> Self {
        self.with_record(RecordMode::nodes(nodes))
    }

    /// Sets the step-control policy.
    pub fn with_step_control(mut self, step: StepControl) -> Self {
        self.step = step;
        self
    }

    /// Overrides the Newton convergence settings.
    pub fn with_newton(mut self, newton: NewtonSettings) -> Self {
        self.newton = newton;
        self
    }

    fn validate(&self) -> Result<(), CircuitError> {
        if !(self.dt > 0.0 && self.dt.is_finite()) {
            return Err(CircuitError::InvalidOption(format!(
                "dt must be positive, got {}",
                self.dt
            )));
        }
        if !(self.t_stop > 0.0 && self.t_stop.is_finite()) {
            return Err(CircuitError::InvalidOption(format!(
                "t_stop must be positive, got {}",
                self.t_stop
            )));
        }
        if let StepControl::Adaptive {
            trtol,
            dt_min,
            dt_max,
        } = self.step
        {
            if !(trtol > 0.0 && trtol.is_finite()) {
                return Err(CircuitError::InvalidOption(format!(
                    "adaptive trtol must be positive, got {trtol}"
                )));
            }
            if dt_min < 0.0 || dt_max < 0.0 || !dt_min.is_finite() || !dt_max.is_finite() {
                return Err(CircuitError::InvalidOption(format!(
                    "adaptive step bounds must be non-negative, got dt_min {dt_min}, \
                     dt_max {dt_max}"
                )));
            }
            if dt_min > 0.0 && dt_max > 0.0 && dt_min > dt_max {
                return Err(CircuitError::InvalidOption(format!(
                    "adaptive dt_min {dt_min} exceeds dt_max {dt_max}"
                )));
            }
        }
        Ok(())
    }
}

/// Newton-failure halving stops below this fraction of the base step
/// (the default floor of both step-control policies).
const HALVING_FLOOR: f64 = 1e-6;

/// Voltage floor of the per-node LTE weight: tolerances stay meaningful on
/// nodes sitting near 0 V.
const LTE_V_FLOOR: f64 = 0.1;

/// Worst per-node ratio of estimated local truncation error to tolerance.
///
/// With the linear divided-difference predictor
/// `x̂ = xₙ + (xₙ − xₙ₋₁)·dt/dt_prev`, the predictor–corrector gap equals
/// `dt·(dt + dt_prev)` times the second divided difference, so scaling it
/// by `dt/(dt + dt_prev)` recovers the backward-Euler LTE `dt²·x″/2`. For
/// trapezoidal integration (order 2) the same estimate is a conservative
/// bound. Branch-current unknowns are excluded — the policy controls node
/// voltages, the quantity the energy accounting integrates.
#[allow(clippy::too_many_arguments)]
fn lte_ratio(
    x_try: &[f64],
    x_cur: &[f64],
    x_prev: &[f64],
    dt: f64,
    dt_prev: f64,
    n_free: usize,
    trtol: f64,
) -> f64 {
    let scale = dt / (dt + dt_prev);
    let slope = dt / dt_prev;
    let mut worst = 0.0f64;
    for col in 0..n_free {
        let pred = x_cur[col] + (x_cur[col] - x_prev[col]) * slope;
        let lte = (x_try[col] - pred).abs() * scale;
        let tol = trtol * (LTE_V_FLOOR + x_try[col].abs().max(x_cur[col].abs()));
        worst = worst.max(lte / tol);
    }
    worst
}

/// Multiplier applied to `gmin` by the first recovery rung.
const RECOVERY_GMIN_ESCALATION: f64 = 1e3;

/// Floor of the escalated `gmin` (siemens): small enough to be negligible
/// against the µS-scale conductances of the TCAM circuits, large enough to
/// regularise a transiently ill-conditioned Jacobian.
const RECOVERY_GMIN_MIN: f64 = 1e-9;

/// Factor applied to `max_voltage_step` by the damped-Newton rung.
const RECOVERY_DAMPING_FACTOR: f64 = 0.1;

/// `true` for failures the recovery ladder may be able to absorb.
///
/// `SingularMatrix` is included because the escalated-`gmin` rung
/// regularises transiently singular Jacobians (e.g. a node left floating
/// while every transistor on it is cut off); structural singularities
/// survive the ladder and surface as an error at once, without halving
/// the step.
fn recoverable(e: &CircuitError) -> bool {
    matches!(
        e,
        CircuitError::NewtonDiverged { .. }
            | CircuitError::NonFiniteSolution { .. }
            | CircuitError::SingularMatrix { .. }
    )
}

/// The in-step recovery ladder, tried in order before the caller falls
/// back to halving `dt` (mirrors the DC `gmin` homotopy in `dc.rs`):
///
/// 1. **gmin escalation** — re-solve under a stiffened shunt
///    (`gmin × 1e3`, at least [`RECOVERY_GMIN_MIN`]), then try to refine
///    the converged point at the original `gmin`; if the refinement
///    diverges again the shunted solution is kept (the extra shunt is
///    negligible at circuit scale for a single step).
/// 2. **damped Newton** — re-solve with `max_voltage_step × 0.1` and a
///    doubled iteration budget, taming overshooting exponentials.
///
/// Each rung restarts from the last accepted state `x_base`; on success
/// `x_try` holds the converged solution and the matching counter in
/// `recovery` is bumped.
#[allow(clippy::too_many_arguments)]
fn recover_step(
    circuit: &Circuit,
    vars: &crate::stamp::VarMap,
    x_base: &[f64],
    x_try: &mut [f64],
    pinned: &[f64],
    t_next: f64,
    dt: f64,
    method: IntegrationMethod,
    settings: &NewtonSettings,
    ws: &mut NewtonWorkspace,
    recovery: &mut RecoveryStats,
) -> Result<usize, CircuitError> {
    // Rung 1: escalated gmin.
    let escalated = NewtonSettings {
        gmin: (settings.gmin * RECOVERY_GMIN_ESCALATION).max(RECOVERY_GMIN_MIN),
        ..*settings
    };
    x_try.copy_from_slice(x_base);
    if let Ok(iters) = newton::solve(
        circuit,
        vars,
        x_try,
        pinned,
        t_next,
        Some(dt),
        method,
        &escalated,
        ws,
    ) {
        recovery.gmin_retries += 1;
        // Warm-started refinement at the true gmin; keep the shunted
        // solution if the refinement still fails.
        let mut x_refined = x_try.to_vec();
        if let Ok(more) = newton::solve(
            circuit,
            vars,
            &mut x_refined,
            pinned,
            t_next,
            Some(dt),
            method,
            settings,
            ws,
        ) {
            x_try.copy_from_slice(&x_refined);
            return Ok(iters + more);
        }
        return Ok(iters);
    }
    // Rung 2: damped Newton. Smaller moves need more of them, so the
    // iteration budget doubles.
    let damped = NewtonSettings {
        max_voltage_step: settings.max_voltage_step * RECOVERY_DAMPING_FACTOR,
        max_iters: settings.max_iters * 2,
        ..*settings
    };
    x_try.copy_from_slice(x_base);
    let iters = newton::solve(
        circuit,
        vars,
        x_try,
        pinned,
        t_next,
        Some(dt),
        method,
        &damped,
        ws,
    )?;
    recovery.damped_retries += 1;
    Ok(iters)
}

/// The transient analysis.
///
/// Breakpoint-aligned time stepping (steps land exactly on source edges)
/// with two policies:
///
/// * [`StepControl::Fixed`] — the base step everywhere, with the recovery
///   ladder (escalated `gmin`, damped Newton, then step halving) absorbing
///   Newton failures.
/// * [`StepControl::Adaptive`] — local-truncation-error control: each
///   converged solve is compared against a divided-difference predictor
///   built from the accepted history; steps whose estimated error exceeds
///   `trtol` are rejected **before any device state is committed** and
///   retried smaller, comfortable steps grow up to `dt_max` (never past a
///   breakpoint). The controller restarts at the base step after every
///   breakpoint so waveform edges are always resolved finely.
///
/// In both policies a *measure* pass runs after every accepted step —
/// before device state is committed, so companion models still see the
/// previous state — recovering the current delivered by each pinned source
/// and integrating per-source energy. It evaluates only the devices with a
/// terminal on a pinned node ([`crate::Device::terminals`]).
///
/// See the crate-level example and [`TransientOpts`] for usage; accepted /
/// rejected / iteration counts are reported via
/// [`TransientResult::step_stats`], and recovery-ladder activity via
/// [`TransientResult::recovery_stats`].
#[derive(Debug, Clone)]
pub struct Transient {
    opts: TransientOpts,
}

impl Transient {
    /// Creates the analysis from options.
    pub fn new(opts: TransientOpts) -> Self {
        Self { opts }
    }

    /// Runs the transient on `circuit`.
    ///
    /// The circuit's device state (capacitor charges, FeFET polarization) is
    /// mutated by the run and reflects the final instant afterwards, so
    /// consecutive transients compose (program, then search). Rejected
    /// adaptive steps never touch device state — only accepted steps
    /// commit.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::NewtonDiverged`] / [`CircuitError::SingularMatrix`]
    ///   if the initial state cannot be solved.
    /// * [`CircuitError::SingularMatrix`] if a step's matrix stays
    ///   singular through the recovery ladder.
    /// * [`CircuitError::StepSizeUnderflow`] if step halving reaches
    ///   the step floor (`base dt × 1e-6`, or the adaptive `dt_min`)
    ///   without convergence.
    /// * [`CircuitError::InvalidOption`] for nonsensical options.
    pub fn run(&self, circuit: &mut Circuit) -> Result<TransientResult, CircuitError> {
        self.opts.validate()?;
        let vars = circuit.build_var_map();
        let mut ws = NewtonWorkspace::new(vars.n_unknowns());
        let mut stats = StepStats::default();
        let mut recovery = RecoveryStats::default();
        let result = self.integrate(circuit, &vars, &mut ws, &mut stats, &mut recovery);
        // The one exit: whatever the outcome, the work done so far is
        // added to the process-wide totals exactly once.
        recovery.dense_demotions = u64::from(ws.matrix.rejected_pivot());
        probe::STEPS.add(stats);
        probe::RECOVERY.add(recovery);
        probe::SOLVER.add(ws.perf);
        let mut res = result?;
        res.stats = stats;
        res.recovery = recovery;
        res.solver = ws.perf;
        Ok(res)
    }

    /// The body of [`Transient::run`]: establishes the initial state and
    /// steps to `t_stop`, counting into `stats`, `recovery` and `ws.perf`.
    fn integrate(
        &self,
        circuit: &mut Circuit,
        vars: &VarMap,
        ws: &mut NewtonWorkspace,
        stats: &mut StepStats,
        recovery: &mut RecoveryStats,
    ) -> Result<TransientResult, CircuitError> {
        let opts = &self.opts;
        // Resolve the step-control policy against the base step.
        let (adaptive, trtol, dt_floor, dt_cap) = match opts.step {
            StepControl::Fixed => (false, 0.0, opts.dt * HALVING_FLOOR, opts.dt),
            StepControl::Adaptive {
                trtol,
                dt_min,
                dt_max,
            } => {
                let lo = if dt_min > 0.0 {
                    dt_min
                } else {
                    opts.dt * HALVING_FLOOR
                };
                let hi = if dt_max > 0.0 {
                    dt_max
                } else {
                    opts.dt * StepControl::DEFAULT_GROWTH_CAP
                };
                (true, trtol, lo, hi.max(opts.dt))
            }
        };
        let n = vars.n_unknowns();
        let mut x = vec![0.0; n];
        let mut pinned = Vec::new();
        circuit.pinned_values_at(0.0, &mut pinned);

        // --- Initial state -------------------------------------------------
        let uic = match &opts.init {
            InitialState::DcOperatingPoint => {
                let (x0, _) = solve_dc(circuit, vars, &opts.newton)?;
                x = x0;
                false
            }
            InitialState::UseInitialConditions(map) => {
                for (&node, &v) in map {
                    if let VarKind::Free(col) = vars.kinds[node.index()] {
                        x[col] = v;
                    }
                }
                true
            }
        };

        // --- Recording setup ----------------------------------------------
        let recorded: Vec<NodeId> = match &opts.record {
            RecordMode::AllNodes => circuit.nodes().map(|(id, _)| id).collect(),
            RecordMode::Nodes(list) => list.clone(),
            RecordMode::None => Vec::new(),
        };
        let mut res = TransientResult::new(circuit, &recorded);
        let n_pins = circuit.pin_count();
        let measured = circuit.measured_devices(vars);
        let mut current_out = vec![0.0; circuit.node_count()];
        let mut pin_power_prev = vec![0.0; n_pins];
        let mut pin_energy = vec![0.0; n_pins];
        // Initialise device state and record the t = 0 sample.
        {
            let ctx = CommitCtx {
                vars,
                x: &x,
                pinned: &pinned,
                time: 0.0,
                dt: None,
                method: opts.method,
            };
            for dev in circuit.devices.iter_mut() {
                dev.init(&ctx, uic);
            }
            res.push_sample(0.0, &ctx, &pin_energy);
        }
        newton::measure_currents(
            circuit,
            &measured,
            vars,
            &x,
            &pinned,
            0.0,
            None,
            opts.method,
            &mut current_out,
        );
        for (p, pin) in circuit.pins.iter().enumerate() {
            pin_power_prev[p] = pinned[p] * current_out[pin.node.index()];
        }

        // --- Time stepping --------------------------------------------------
        let breakpoints = circuit.collect_breakpoints(opts.t_stop);
        let mut bp_iter = breakpoints.into_iter().peekable();
        let mut t = 0.0f64;
        let t_eps = opts.t_stop * 1e-12;
        // Adaptive-control state: the step the controller wants next and
        // the last accepted state `x_{n-1}` with its step `dt_prev` for the
        // predictor. Both restart at breakpoints, where waveform slopes
        // jump (`dt_prev = None`).
        let mut cur_dt = opts.dt;
        let mut x_prev = vec![0.0; n];
        let mut dt_prev: Option<f64> = None;
        // Attempt buffer, swapped with `x` on acceptance.
        let mut x_try = vec![0.0; n];
        while t < opts.t_stop - t_eps {
            // Advance past consumed breakpoints.
            while let Some(&bp) = bp_iter.peek() {
                if bp <= t + t_eps {
                    bp_iter.next();
                } else {
                    break;
                }
            }
            let seg_end = bp_iter
                .peek()
                .copied()
                .unwrap_or(opts.t_stop)
                .min(opts.t_stop);
            let mut dt = cur_dt.min(seg_end - t);
            // Avoid a sliver step at the end of a segment.
            if seg_end - (t + dt) < opts.dt * 1e-3 {
                dt = seg_end - t;
            }
            // A segment below the floating-point resolution at `t` cannot
            // host a step: `t + dt` would not advance (and a zero-length
            // dt would blow up the reactive companion models). Jump to its
            // end instead of attempting a solve.
            if t + dt <= t {
                t = seg_end;
                continue;
            }

            // Attempt the step: climb the recovery ladder on solver
            // failure (escalated gmin → damped Newton → halve dt), shrink
            // on LTE rejection. Device state is only committed after
            // acceptance. The floor is enforced where the step shrinks
            // (Newton halving), not up front: a breakpoint segment
            // legitimately shorter than the floor must still be steppable.
            let mut step_recovered = false;
            loop {
                let t_next = t + dt;
                circuit.pinned_values_at(t_next, &mut pinned);
                x_try.copy_from_slice(&x);
                let mut attempt = newton::solve(
                    circuit,
                    vars,
                    &mut x_try,
                    &pinned,
                    t_next,
                    Some(dt),
                    opts.method,
                    &opts.newton,
                    ws,
                );
                if let Err(e) = &attempt {
                    if recoverable(e) {
                        if matches!(e, CircuitError::NonFiniteSolution { .. }) {
                            recovery.nonfinite += 1;
                        }
                        attempt = recover_step(
                            circuit,
                            vars,
                            &x,
                            &mut x_try,
                            &pinned,
                            t_next,
                            dt,
                            opts.method,
                            &opts.newton,
                            ws,
                            recovery,
                        );
                        if attempt.is_ok() {
                            step_recovered = true;
                        }
                    }
                }
                match attempt {
                    Ok(iters) => {
                        stats.newton_iters += iters as u64;
                        if adaptive {
                            if let Some(dt_prev) = dt_prev {
                                let ratio =
                                    lte_ratio(&x_try, &x, &x_prev, dt, dt_prev, vars.n_free, trtol);
                                if ratio > 1.0 && dt > opts.dt * (1.0 + 1e-12) {
                                    // Reject: retry smaller. The base step
                                    // `opts.dt` is the accuracy reference
                                    // (it is what a fixed-step run uses
                                    // everywhere), so the LTE check only
                                    // governs *grown* steps and never
                                    // pushes below the base — sharp edges
                                    // cost what they cost under fixed
                                    // stepping, flat regions are cheaper.
                                    stats.rejected += 1;
                                    let shrink = (0.9 / ratio.sqrt()).clamp(0.1, 0.5);
                                    dt = (dt * shrink).max(opts.dt);
                                    continue;
                                }
                                // Accept and schedule the next step: the
                                // first-order LTE scales with dt², so the
                                // optimum grows like 1/√ratio (safety 0.9,
                                // at most 2× per step, never past dt_max).
                                let grow = (0.9 / ratio.max(1e-6).sqrt()).clamp(0.2, 2.0);
                                cur_dt = (dt * grow).clamp(opts.dt, dt_cap);
                            }
                        }
                        break;
                    }
                    // The ladder's escalated-gmin rung already put a
                    // shunt on every node; a singularity that survives it
                    // is structural, and no smaller step can cure it.
                    Err(e @ CircuitError::SingularMatrix { .. }) => return Err(e),
                    Err(e) if recoverable(&e) => {
                        stats.halvings += 1;
                        step_recovered = true;
                        dt *= 0.5;
                        if dt < dt_floor {
                            return Err(CircuitError::StepSizeUnderflow { time: t, dt });
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
            if step_recovered {
                recovery.recovered_steps += 1;
            }
            let t_next = t + dt;
            // `x_try` now holds the previous accepted state.
            std::mem::swap(&mut x, &mut x_try);

            // Measure pass BEFORE commit: companion models must still see
            // the previous state so capacitor/FeFET currents are exact.
            newton::measure_currents(
                circuit,
                &measured,
                vars,
                &x,
                &pinned,
                t_next,
                Some(dt),
                opts.method,
                &mut current_out,
            );
            res.max_kcl_residual = res.max_kcl_residual.max(ws.residual);
            // Commit device state, then account energies at the new state.
            {
                let ctx = CommitCtx {
                    vars,
                    x: &x,
                    pinned: &pinned,
                    time: t_next,
                    dt: Some(dt),
                    method: opts.method,
                };
                for dev in circuit.devices.iter_mut() {
                    dev.commit(&ctx);
                }
                // Devices with internal dynamics the node-voltage LTE
                // cannot see (ferroelectric switching under constant bias)
                // bound the next step; never below the base step.
                if adaptive {
                    let mut hint = f64::INFINITY;
                    for dev in circuit.devices.iter() {
                        if let Some(h) = dev.max_timestep() {
                            hint = hint.min(h);
                        }
                    }
                    if hint.is_finite() {
                        cur_dt = cur_dt.min(hint.max(opts.dt));
                    }
                }
                for (p, pin) in circuit.pins.iter().enumerate() {
                    let power = pinned[p] * current_out[pin.node.index()];
                    pin_energy[p] += 0.5 * (pin_power_prev[p] + power) * dt;
                    pin_power_prev[p] = power;
                }
                res.push_sample(t_next, &ctx, &pin_energy);
            }
            if adaptive {
                std::mem::swap(&mut x_prev, &mut x_try);
                dt_prev = Some(dt);
                // Waveform slopes are discontinuous at breakpoints:
                // restart the controller there so the following edge is
                // resolved at the base step again.
                if t_next >= seg_end - t_eps && bp_iter.peek().is_some() {
                    dt_prev = None;
                    cur_dt = opts.dt;
                }
            }
            t = t_next;
            stats.accepted += 1;
        }

        Ok(res)
    }
}
