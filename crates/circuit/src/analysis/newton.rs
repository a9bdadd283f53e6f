//! Shared Newton–Raphson kernel used by the DC and transient analyses.
//!
//! There is one iteration loop. Devices are partitioned by
//! [`crate::StampClass`] into a *static* set (matrix stamp fixed within
//! one time point) and a *dynamic* set (restamped every iteration). The
//! static set, the dynamic set's [`crate::Device::stamp_companions`] and
//! the `gmin` shunts are stamped once per call into a baseline snapshot;
//! each iteration restores the snapshot and restamps only the dynamic
//! set's [`crate::Device::stamp`], then factors (or reuses factors) and
//! solves.
//!
//! A converged call also reports the worst free-node KCL residual
//! `z − A·x` of the last Newton load at the accepted `x`: one product with
//! the matrix already assembled, no device evaluation (SPICE3 likewise
//! checks currents from the load that computed them). It measures how far
//! the accepted point is from solving the last linearisation — a chord
//! step stopped short of its fixed point shows here — but not the devices'
//! curvature between the load point and `x`, which the update-size test
//! bounds.
//!
//! Three layers make the loop cheap, and [`HotPath`] switches each off
//! independently of the others:
//!
//! * `incremental` — the static/dynamic partition. Off, every device is
//!   dynamic, companions included, and the baseline holds only the `gmin`
//!   shunts. On, and with no [`crate::StampClass::TimeVarying`] device,
//!   the baseline matrix is also kept across calls under its
//!   `(dt, method, gmin)` key: a call with the same key restores it and
//!   restamps only the right-hand side.
//! * `tape` — both stamping passes run through slot-resolved stamp tapes
//!   ([`crate::linalg::StampTape`]), so steady-state assembly is straight
//!   array writes with no hash lookups.
//! * `lu_reuse` — the LU factorisation is reused across iterations and
//!   calls where it is safe: exactly for all-linear circuits, and as
//!   guarded chord-Newton steps for nonlinear transients.
//!
//! [`HotPath::legacy`] turns all three off: a full restamp and a fresh
//! factorisation on every iteration, the reference the layers are tested
//! against.

use crate::circuit::{Circuit, StampPartition};
use crate::error::CircuitError;
use crate::linalg::{StampTape, SystemMatrix};
use crate::probe::SolverPerf;
use crate::stamp::{IntegrationMethod, StampCtx, StampMode, VarMap};

/// Chord-Newton staleness cap: force a fresh factorisation after this many
/// consecutive substitutions against the same frozen factors. The
/// contraction and damping guards usually refresh sooner; this bounds the
/// worst case.
const CHORD_MAX_AGE: u64 = 10;

/// Toggles for the layers of the Newton loop.
///
/// All three layers are on by default; each flag switches one off without
/// affecting the others. [`HotPath::legacy`] switches all three off.
///
/// # Examples
///
/// ```
/// use ftcam_circuit::HotPath;
///
/// assert!(HotPath::default().incremental);
/// assert!(!HotPath::legacy().lu_reuse);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotPath {
    /// Partition devices by [`crate::StampClass`], stamp the static set
    /// and the dynamic set's companions once per time point into a
    /// baseline snapshot, and restamp only the dynamic set's
    /// [`crate::Device::stamp`] each Newton iteration. Unless a
    /// [`crate::StampClass::TimeVarying`] device is present, a time point
    /// at the previous point's `(dt, method, gmin)` restores the baseline
    /// matrix and restamps only its right-hand side.
    pub incremental: bool,
    /// Record each assembly pass's `(row, col) → slot` writes into a
    /// replayable tape, turning steady-state stamping into direct array
    /// writes (no hash lookups). Replays are coordinate-verified, so a
    /// pattern change degrades to the hash path instead of corrupting the
    /// matrix.
    pub tape: bool,
    /// Reuse the LU factorisation across iterations and calls: exactly
    /// (bit-identical) for all-linear circuits, and as guarded
    /// chord-Newton steps for nonlinear transients.
    pub lu_reuse: bool,
}

impl Default for HotPath {
    fn default() -> Self {
        Self {
            incremental: true,
            tape: true,
            lu_reuse: true,
        }
    }
}

impl HotPath {
    /// Reference behaviour: every layer off, so each Newton iteration
    /// restamps every device and computes a fresh factorisation.
    pub fn legacy() -> Self {
        Self {
            incremental: false,
            tape: false,
            lu_reuse: false,
        }
    }
}

/// Convergence and robustness knobs for the Newton iteration.
///
/// Shared by the DC operating point and the transient analysis. The
/// defaults suit the sub-micron TCAM circuits this crate targets; loosen
/// or tighten them through the builder methods and attach the result with
/// [`crate::analysis::TransientOpts::with_newton`] or
/// [`crate::analysis::DcOperatingPoint::with_newton`].
///
/// # Examples
///
/// ```
/// use ftcam_circuit::analysis::NewtonSettings;
///
/// let settings = NewtonSettings::new()
///     .with_tolerances(1e-5, 1e-7, 1e-13)
///     .with_max_iters(200);
/// assert_eq!(settings.reltol, 1e-5);
/// assert_eq!(settings.max_iters, 200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonSettings {
    /// Absolute voltage tolerance (volts).
    pub abstol_v: f64,
    /// Absolute branch-current tolerance (amps).
    pub abstol_i: f64,
    /// Relative tolerance applied to both voltages and currents.
    pub reltol: f64,
    /// Iteration cap for nonlinear circuits.
    pub max_iters: usize,
    /// Largest per-iteration voltage move before the update is scaled down
    /// (damps exponential devices during early iterations).
    pub max_voltage_step: f64,
    /// Shunt conductance from every free node to ground.
    pub gmin: f64,
    /// Newton-loop layer toggles; see [`HotPath`].
    pub hot_path: HotPath,
    /// Deterministic fault to inject into every solve (chaos tests only;
    /// see [`crate::fault`]).
    #[cfg(feature = "fault-injection")]
    pub fault: Option<crate::fault::FaultPlan>,
}

impl Default for NewtonSettings {
    fn default() -> Self {
        Self {
            abstol_v: 1e-6,
            abstol_i: 1e-12,
            reltol: 1e-4,
            max_iters: 120,
            max_voltage_step: 0.5,
            gmin: 1e-12,
            hot_path: HotPath::default(),
            #[cfg(feature = "fault-injection")]
            fault: None,
        }
    }
}

impl NewtonSettings {
    /// Creates the default settings (same as `Default::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the convergence tolerances: relative tolerance plus the
    /// absolute voltage and branch-current floors.
    #[must_use]
    pub fn with_tolerances(mut self, reltol: f64, abstol_v: f64, abstol_i: f64) -> Self {
        self.reltol = reltol;
        self.abstol_v = abstol_v;
        self.abstol_i = abstol_i;
        self
    }

    /// Sets the iteration cap for nonlinear circuits.
    #[must_use]
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Selects which Newton-loop layers are on; see [`HotPath`].
    #[must_use]
    pub fn with_hot_path(mut self, hot_path: HotPath) -> Self {
        self.hot_path = hot_path;
        self
    }

    /// Attaches a deterministic fault plan consulted by every solve
    /// (chaos tests only; see [`crate::fault`]).
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn with_fault(mut self, fault: crate::fault::FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// Every ingredient of the *static* part of the matrix: the step size,
/// the integration method, the `gmin` shunt, and the matrix epoch (which
/// advances on structural growth only). It keys both the frozen LU
/// factorisation and the cached baseline matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FactorKey {
    dt_bits: Option<u64>,
    method: IntegrationMethod,
    gmin_bits: u64,
    epoch: u64,
}

impl FactorKey {
    fn new(dt: Option<f64>, method: IntegrationMethod, gmin: f64, epoch: u64) -> Self {
        Self {
            dt_bits: dt.map(f64::to_bits),
            method,
            gmin_bits: gmin.to_bits(),
            epoch,
        }
    }
}

/// Reusable buffers for the Newton iteration (avoids per-step allocation).
///
/// The system matrix keeps sparse slots at every size and factors them
/// with the no-pivot sparse LU (symbolic reuse, branch rows ordered after
/// their nodes; see [`crate::linalg::SystemMatrix`]). Beyond the matrix
/// and vectors this carries the hot-path state that persists across
/// calls: the static/dynamic device partition, the two stamp tapes, the
/// baseline snapshot and its key, and the frozen-factor bookkeeping.
#[derive(Debug)]
pub(crate) struct NewtonWorkspace {
    pub matrix: SystemMatrix,
    pub rhs: Vec<f64>,
    pub x_new: Vec<f64>,
    /// Hot-path counters accumulated across every solve through this
    /// workspace; drained by the owning analysis.
    pub perf: SolverPerf,
    /// Worst free-node KCL residual `|z − A·x|` (amps) of the last Newton
    /// load at the accepted `x`, from the last successful [`solve`].
    pub residual: f64,
    /// Computed from the circuit on first use; a circuit's device list is
    /// fixed for the lifetime of an analysis (and its workspace).
    partition: Option<StampPartition>,
    static_tape: StampTape,
    dynamic_tape: StampTape,
    baseline_vals: Vec<f64>,
    baseline_rhs: Vec<f64>,
    /// Key the matrix part of the baseline snapshot holds for; `None` when
    /// it may not be reused across calls.
    baseline_key: Option<FactorKey>,
    scratch: Vec<f64>,
    factor_key: Option<FactorKey>,
    /// Substitutions served by the current factors since they were computed.
    factor_age: u64,
    /// `‖Δx‖∞` of the previous iteration, for the chord contraction guard.
    prev_delta: f64,
    /// Set by the guards when the frozen factors have gone stale; forces a
    /// fresh factorisation on the next iteration.
    force_refresh: bool,
}

impl NewtonWorkspace {
    pub fn new(n: usize) -> Self {
        Self {
            matrix: SystemMatrix::new(n),
            rhs: vec![0.0; n],
            x_new: vec![0.0; n],
            perf: SolverPerf::default(),
            residual: 0.0,
            partition: None,
            static_tape: StampTape::new(),
            dynamic_tape: StampTape::new(),
            baseline_vals: Vec::new(),
            baseline_rhs: Vec::new(),
            baseline_key: None,
            scratch: vec![0.0; n],
            factor_key: None,
            factor_age: 0,
            prev_delta: f64::INFINITY,
            force_refresh: false,
        }
    }
}

/// Which of a device's two stamping entry points a pass calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stamps {
    /// [`crate::Device::stamp`] then [`crate::Device::stamp_companions`].
    Both,
    /// [`crate::Device::stamp`] only: the part that moves with the iterate.
    Iterate,
    /// [`crate::Device::stamp_companions`] only.
    Companions,
}

/// One stamping pass over subsets of devices, optionally recorded into or
/// replayed from a slot tape. When `gmin` is `Some`, the free-node shunt
/// diagonals are stamped at the end of the pass (so they land on the tape
/// too). With no `matrix` the pass stamps the right-hand side alone, with
/// neither tape nor shunts. The caller clears the system before a
/// baseline pass.
#[allow(clippy::too_many_arguments)]
fn assemble_pass(
    circuit: &Circuit,
    vars: &VarMap,
    x: &[f64],
    pinned: &[f64],
    time: f64,
    dt: Option<f64>,
    method: IntegrationMethod,
    mut matrix: Option<&mut SystemMatrix>,
    rhs: &mut [f64],
    sets: &[(&[usize], Stamps)],
    gmin: Option<f64>,
    use_tape: bool,
    tape: &mut StampTape,
    perf: &mut SolverPerf,
) {
    let replaying = match matrix.as_deref_mut() {
        Some(m) if use_tape => m.begin_tape(std::mem::take(tape)),
        _ => false,
    };
    {
        let mut ctx = StampCtx {
            mode: StampMode::Assemble {
                matrix: matrix.as_deref_mut(),
                rhs,
            },
            vars,
            x,
            pinned,
            time,
            dt,
            method,
            mult: 1.0,
        };
        for &(indices, stamps) in sets {
            for &idx in indices {
                ctx.mult = circuit.device_mult[idx];
                let dev = &circuit.devices[idx];
                if stamps != Stamps::Companions {
                    dev.stamp(&mut ctx);
                }
                if stamps != Stamps::Iterate {
                    dev.stamp_companions(&mut ctx);
                }
            }
        }
    }
    let Some(matrix) = matrix else { return };
    if let Some(g) = gmin {
        // gmin shunt on free node diagonals keeps floating nodes solvable;
        // a node standing for `m` copies carries `m` shunts.
        for (col, &m) in vars.free_mult.iter().enumerate() {
            matrix.add(col, col, g * m);
        }
    }
    if use_tape {
        let finished = matrix.end_tape();
        if replaying {
            if finished.is_valid() {
                perf.tape_replays += 1;
            } else {
                perf.tape_mismatches += 1;
            }
        }
        *tape = finished;
    }
}

/// Damped update + convergence check of the Newton loop. Damping
/// only matters for nonlinear devices (it bounds the argument fed to
/// exponentials); for linear systems the undamped solve is exact.
/// Returns `(converged, scale)`.
fn damped_update(
    nonlinear: bool,
    vars: &VarMap,
    settings: &NewtonSettings,
    x: &mut [f64],
    x_new: &[f64],
) -> (bool, f64) {
    let scale = if nonlinear {
        let mut max_dv: f64 = 0.0;
        for (new, old) in x_new.iter().zip(x.iter()).take(vars.n_free) {
            max_dv = max_dv.max((new - old).abs());
        }
        if max_dv > settings.max_voltage_step {
            settings.max_voltage_step / max_dv
        } else {
            1.0
        }
    } else {
        1.0
    };
    let mut converged = true;
    for (col, xi) in x.iter_mut().enumerate() {
        let delta = (x_new[col] - *xi) * scale;
        let (abstol, magnitude) = if col < vars.n_free {
            (settings.abstol_v, x_new[col].abs())
        } else {
            (settings.abstol_i, x_new[col].abs())
        };
        if delta.abs() > abstol + settings.reltol * magnitude {
            converged = false;
        }
        *xi += delta;
    }
    (converged, scale)
}

/// Runs Newton–Raphson at one time point, updating `x` in place.
///
/// Returns the number of iterations used.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve(
    circuit: &Circuit,
    vars: &VarMap,
    x: &mut [f64],
    pinned: &[f64],
    time: f64,
    dt: Option<f64>,
    method: IntegrationMethod,
    settings: &NewtonSettings,
    ws: &mut NewtonWorkspace,
) -> Result<usize, CircuitError> {
    let n = vars.n_unknowns();
    debug_assert_eq!(x.len(), n);
    if n == 0 {
        return Ok(0);
    }
    #[cfg(feature = "fault-injection")]
    if let Some(plan) = &settings.fault {
        plan.check_panic(time);
        if plan.forces_divergence(time, dt, settings.gmin, settings.max_voltage_step) {
            return Err(CircuitError::NewtonDiverged {
                time,
                iterations: 0,
            });
        }
    }
    let nonlinear = circuit.has_nonlinear_devices();
    let max_iters = if nonlinear {
        settings.max_iters
    } else {
        // One assembly + solve is exact for linear systems; a second pass
        // confirms the delta is below tolerance.
        2
    };
    let hp = settings.hot_path;
    if ws.partition.is_none() {
        let mut part = circuit.stamp_partition();
        if !hp.incremental {
            // Every device restamps each iteration; the baseline holds only
            // the gmin shunts.
            part.static_devices.clear();
            part.dynamic_devices = (0..circuit.devices.len()).collect();
        }
        ws.partition = Some(part);
    }
    // Destructure so the borrow checker sees the disjoint fields.
    let NewtonWorkspace {
        matrix,
        rhs,
        x_new,
        perf,
        residual,
        partition,
        static_tape,
        dynamic_tape,
        baseline_vals,
        baseline_rhs,
        baseline_key,
        scratch,
        factor_key,
        factor_age,
        prev_delta,
        force_refresh,
    } = ws;
    let part = partition.as_ref().expect("partition computed above");
    // Incremental: the dynamic set's companions are fixed within this
    // call, so they go into the baseline. Legacy: everything restamps.
    let (held, iterate) = if hp.incremental {
        (&part.dynamic_devices[..], Stamps::Iterate)
    } else {
        (&[][..], Stamps::Both)
    };
    let baseline_sets = [
        (&part.static_devices[..], Stamps::Both),
        (held, Stamps::Companions),
    ];
    // A timed switch moves the static matrix between time points, so only
    // a switch-free partition may carry the baseline matrix across calls.
    let cacheable = hp.incremental && !part.time_varying;
    // The chord contraction guard compares successive deltas *within* this
    // call; the converged tail of the previous time point must not count.
    *prev_delta = f64::INFINITY;
    // Epoch the current baseline snapshot was taken at; a mismatch
    // (structural growth, including mid-call) forces a rebuild against the
    // grown slot layout.
    let mut baseline_epoch: Option<u64> = None;
    for iter in 0..max_iters {
        if baseline_epoch != Some(matrix.epoch()) {
            // At the cached key the baseline matrix is already known; only
            // the right-hand side moves with time and committed state.
            let key = FactorKey::new(dt, method, settings.gmin, matrix.epoch());
            let cached = *baseline_key == Some(key);
            if cached {
                matrix.restore_values(baseline_vals);
            } else {
                matrix.clear();
            }
            rhs.fill(0.0);
            assemble_pass(
                circuit,
                vars,
                x,
                pinned,
                time,
                dt,
                method,
                (!cached).then_some(&mut *matrix),
                rhs,
                &baseline_sets,
                Some(settings.gmin),
                hp.tape,
                static_tape,
                perf,
            );
            if cached {
                #[cfg(debug_assertions)]
                check_cached_baseline(
                    circuit,
                    vars,
                    x,
                    pinned,
                    time,
                    dt,
                    method,
                    settings.gmin,
                    matrix,
                    rhs,
                    &baseline_sets,
                    hp.tape,
                    static_tape,
                );
                perf.baseline_reuses += 1;
            } else {
                baseline_vals.clear();
                baseline_vals.extend_from_slice(matrix.values());
                *baseline_key =
                    cacheable.then(|| FactorKey::new(dt, method, settings.gmin, matrix.epoch()));
                perf.baseline_snapshots += 1;
            }
            baseline_rhs.clear();
            baseline_rhs.extend_from_slice(rhs);
            baseline_epoch = Some(matrix.epoch());
        } else {
            matrix.restore_values(baseline_vals);
            rhs.copy_from_slice(baseline_rhs);
            perf.baseline_reuses += 1;
        }
        if !part.dynamic_devices.is_empty() {
            assemble_pass(
                circuit,
                vars,
                x,
                pinned,
                time,
                dt,
                method,
                Some(&mut *matrix),
                rhs,
                &[(&part.dynamic_devices, iterate)],
                None,
                hp.tape,
                dynamic_tape,
                perf,
            );
        }

        let key = FactorKey::new(dt, method, settings.gmin, matrix.epoch());
        let reusable = hp.lu_reuse && matrix.is_factored() && *factor_key == Some(key);
        // All-linear circuits assemble a bit-identical matrix at a fixed
        // key, so substituting against the cached factors is exactly the
        // full solve.
        let exact = reusable && part.all_linear;
        // Chord Newton for nonlinear transients: keep the frozen factors
        // while they contract, refresh on damping, staleness, or when the
        // iteration budget starts running out (the last half of the budget
        // always gets true Newton steps, so the recovery ladder sees the
        // same worst-case behaviour as before).
        let chord = reusable
            && !part.all_linear
            && nonlinear
            && dt.is_some()
            && !*force_refresh
            && *factor_age < CHORD_MAX_AGE
            && iter * 2 < max_iters;
        let mut chord_step = false;
        if exact {
            x_new.copy_from_slice(rhs);
            matrix.substitute(x_new);
            *factor_age += 1;
            perf.lu_bypasses += 1;
        } else if chord {
            // Residual form: d = F⁻¹·(z − A(x)·x) with F the frozen
            // factors and A, z the freshly assembled system, so the fixed
            // point is the true Newton fixed point, not F's.
            matrix.mul_vec_into(x, scratch);
            for i in 0..n {
                x_new[i] = rhs[i] - scratch[i];
            }
            matrix.substitute(x_new);
            for (xi_new, xi) in x_new.iter_mut().zip(x.iter()) {
                *xi_new += *xi;
            }
            *factor_age += 1;
            chord_step = true;
            perf.lu_bypasses += 1;
        } else {
            matrix.factor()?;
            *factor_key = Some(key);
            *factor_age = 0;
            *force_refresh = false;
            *prev_delta = f64::INFINITY;
            x_new.copy_from_slice(rhs);
            matrix.substitute(x_new);
            perf.factorizations += 1;
        }
        perf.substitutions += 1;
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &settings.fault {
            if plan.injects_nan(time, dt) {
                x_new[0] = f64::NAN;
            }
        }
        // A NaN/Inf in the update means a poisoned stamp or an overflowed
        // companion model; iterating further only launders the garbage
        // through the damped update, so fail structurally right here.
        if x_new.iter().any(|v| !v.is_finite()) {
            return Err(CircuitError::NonFiniteSolution {
                time,
                iteration: iter,
            });
        }
        let mut delta_norm: f64 = 0.0;
        for (new, old) in x_new.iter().zip(x.iter()) {
            delta_norm = delta_norm.max((new - old).abs());
        }
        let (converged, scale) = damped_update(nonlinear, vars, settings, x, x_new);
        if chord_step && (scale < 1.0 || delta_norm > 0.5 * *prev_delta) {
            // The frozen Jacobian stopped contracting (or the step needed
            // damping): refresh before the next iteration.
            *force_refresh = true;
        }
        *prev_delta = delta_norm;
        // Linear circuits: solution after first full (unscaled) update is
        // exact; accept immediately to save a reassembly.
        if scale == 1.0 && ((converged && iter > 0) || !nonlinear) {
            // KCL of the last load at the accepted point (see the module
            // doc).
            matrix.mul_vec_into(x, scratch);
            *residual = rhs[..vars.n_free]
                .iter()
                .zip(&scratch[..vars.n_free])
                .fold(0.0, |worst: f64, (z, ax)| worst.max((z - ax).abs()));
            return Ok(iter + 1);
        }
    }
    Err(CircuitError::NewtonDiverged {
        time,
        iterations: max_iters,
    })
}

/// Debug builds check every cached baseline against a full restamp: the
/// restored matrix values and the rhs-only right-hand side must equal, bit
/// for bit, what stamping every baseline device into a cleared system
/// gives, through the static tape as a cache miss would.
#[cfg(debug_assertions)]
#[allow(clippy::too_many_arguments)]
fn check_cached_baseline(
    circuit: &Circuit,
    vars: &VarMap,
    x: &[f64],
    pinned: &[f64],
    time: f64,
    dt: Option<f64>,
    method: IntegrationMethod,
    gmin: f64,
    matrix: &mut SystemMatrix,
    rhs: &mut [f64],
    sets: &[(&[usize], Stamps)],
    use_tape: bool,
    tape: &mut StampTape,
) {
    let (cached_vals, cached_rhs) = (matrix.values().to_vec(), rhs.to_vec());
    matrix.clear();
    rhs.fill(0.0);
    assemble_pass(
        circuit,
        vars,
        x,
        pinned,
        time,
        dt,
        method,
        Some(matrix),
        rhs,
        sets,
        Some(gmin),
        use_tape,
        tape,
        &mut SolverPerf::default(),
    );
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    assert!(
        same(&cached_vals, matrix.values()),
        "cached baseline matrix differs from a full restamp at t = {time}"
    );
    assert!(
        same(&cached_rhs, rhs),
        "rhs-only baseline differs from a full restamp at t = {time}"
    );
}

/// Runs the measure pass at the converged solution over `devices` (indices
/// in device order, from [`Circuit::measured_devices`]), filling
/// `current_out` with the net current leaving each node into them.
///
/// Only pinned-node entries are complete: every device that writes to a
/// pinned node is in `devices`, and each such entry sums the same terms in
/// the same order as a pass over every device would. Debug builds check
/// exactly that against a pass over every device.
#[allow(clippy::too_many_arguments)]
pub(crate) fn measure_currents(
    circuit: &Circuit,
    devices: &[usize],
    vars: &VarMap,
    x: &[f64],
    pinned: &[f64],
    time: f64,
    dt: Option<f64>,
    method: IntegrationMethod,
    current_out: &mut [f64],
) {
    let pass = |devices: &[usize], current_out: &mut [f64]| {
        current_out.fill(0.0);
        let mut ctx = StampCtx {
            mode: StampMode::Measure { current_out },
            vars,
            x,
            pinned,
            time,
            dt,
            method,
            mult: 1.0,
        };
        for &idx in devices {
            ctx.mult = circuit.device_mult[idx];
            let dev = &circuit.devices[idx];
            dev.stamp(&mut ctx);
            dev.stamp_companions(&mut ctx);
        }
    };
    pass(devices, current_out);
    #[cfg(debug_assertions)]
    {
        let every: Vec<usize> = (0..circuit.devices.len()).collect();
        let mut full = vec![0.0; current_out.len()];
        pass(&every, &mut full);
        for (pin, label) in circuit.pins.iter().zip(&circuit.names().pins) {
            let node = pin.node.index();
            assert_eq!(
                current_out[node].to_bits(),
                full[node].to_bits(),
                "pin {} at t = {time}: the measured devices miss a current \
                 (a `Device::terminals` list omits a node)",
                label
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{Capacitor, Diode, Resistor};
    use crate::waveform::Waveform;

    /// Ladder stage counts the hot-path tests run at: a small system and
    /// one as wide as the benchmark's sparse bucket.
    const STAGES: [usize; 2] = [4, crate::linalg::SPARSE_THRESHOLD];

    /// An RC ladder of `stages` stages, with a diode so the nonlinear
    /// (chord) path engages.
    fn ladder(stages: usize) -> Circuit {
        let mut ckt = Circuit::new();
        let rail = ckt.node("rail");
        ckt.pin(rail, "VDD", Waveform::dc(1.0)).expect("pin");
        let mut prev = rail;
        for i in 0..stages {
            let n = ckt.node(&format!("s{i}"));
            ckt.add(Resistor::new(prev, n, 1e3));
            ckt.add(Capacitor::new(n, ckt.ground(), 1e-15));
            prev = n;
        }
        ckt.add(Diode::new(prev, ckt.ground(), 1e-15));
        ckt
    }

    /// The chord/LU-reuse layer must actually bypass factorisations on a
    /// steady run — and the tape must replay once the pattern froze.
    #[test]
    fn hot_path_reuses_factors_and_tapes() {
        for stages in STAGES {
            let mut ckt = ladder(stages);
            let vars = ckt.build_var_map();
            let n = vars.n_unknowns();
            let mut ws = NewtonWorkspace::new(n);
            let settings = NewtonSettings::default();
            let dt = 1e-12;
            let mut pinned = Vec::new();
            let mut x = vec![0.0; n];
            for step in 0..6 {
                let t = (step as f64 + 1.0) * dt;
                ckt.pinned_values_at(t, &mut pinned);
                solve(
                    &ckt,
                    &vars,
                    &mut x,
                    &pinned,
                    t,
                    Some(dt),
                    IntegrationMethod::BackwardEuler,
                    &settings,
                    &mut ws,
                )
                .expect("step converges");
            }
            let perf = ws.perf;
            assert!(
                perf.lu_bypasses > 0,
                "{stages} stages: chord must bypass factorisations"
            );
            assert!(
                perf.tape_replays > 0,
                "{stages} stages: tapes must replay: {perf:?}"
            );
            assert!(
                perf.baseline_reuses > 0,
                "{stages} stages: baselines must be reused"
            );
            assert!(
                perf.factorizations < perf.substitutions,
                "{stages} stages: reuse must beat refactoring: {perf:?}"
            );
            assert_eq!(
                perf.tape_mismatches, 0,
                "{stages} stages: pattern is stable: {perf:?}"
            );
        }
    }
}
