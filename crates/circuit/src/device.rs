//! The [`Device`] trait implemented by every circuit element.

use std::any::Any;

use crate::node::NodeId;
use crate::stamp::{CommitCtx, StampCtx};

/// Opaque handle to a device inside a [`crate::Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub(crate) u32);

impl DeviceId {
    /// Raw index of the device in insertion order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// How a device's *matrix* contribution varies across a transient — the
/// static/dynamic partition hint behind the incremental-assembly Newton
/// hot path ([`crate::analysis::HotPath`]).
///
/// The classification is about the Jacobian (matrix) stamp only; the
/// right-hand side may vary with time in every class (a voltage source is
/// `Linear` even though `v(t)` changes every step — its matrix stamp is
/// the constant ±1 KCL pattern).
///
/// Misclassification trades performance for correctness in exactly one
/// direction: claiming `Dynamic` for a linear device only costs restamps,
/// while claiming `Linear` for a device whose matrix stamp actually moves
/// would silently freeze it — hence the conservative `Dynamic` default on
/// the trait.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StampClass {
    /// Matrix stamp depends only on `(dt, method)` — constant across all
    /// Newton iterations *and* all time points at a fixed step size
    /// (resistors, capacitor companions, ideal source branch rows).
    Linear,
    /// Matrix stamp depends on time but not on the candidate solution
    /// (timed switches): constant within one time point's Newton loop,
    /// restamped between points.
    TimeVarying,
    /// Matrix stamp depends on the candidate solution (diodes, MOSFETs,
    /// FeFETs) — must be restamped every Newton iteration.
    Dynamic,
}

/// A circuit element that can stamp itself into the MNA system.
///
/// The simulator drives devices through three entry points:
///
/// 1. [`Device::stamp`] — called on every Newton iteration (and once more in
///    *measure* mode after convergence). The device reads candidate node
///    voltages from the [`StampCtx`] and contributes conductances, (trans-)
///    conductances and equivalent current sources. Using the same method for
///    assembly and measurement guarantees the measured terminal currents are
///    exactly the converged model currents.
/// 2. [`Device::commit`] — called once per accepted time step so the device
///    can update internal state (capacitor charge, ferroelectric
///    polarization, ...).
/// 3. [`Device::init`] — called once when a transient starts, after the DC
///    operating point (or with the user's initial conditions when `uic`).
///
/// Devices requiring branch-current unknowns (ideal two-terminal voltage
/// sources) declare them via [`Device::branch_count`] and receive their first
/// branch index through [`Device::assign_branches`].
pub trait Device: Any + std::fmt::Debug + Send {
    /// Stamps the linearised device equations (assembly mode) or its terminal
    /// currents (measure mode) into the context.
    fn stamp(&self, ctx: &mut StampCtx<'_>);

    /// Number of extra branch-current unknowns required.
    fn branch_count(&self) -> usize {
        0
    }

    /// Receives the first global branch index assigned to this device.
    ///
    /// Called once before every analysis; devices with `branch_count() == 0`
    /// can ignore it.
    fn assign_branches(&mut self, first: usize) {
        let _ = first;
    }

    /// Updates internal state after an accepted step.
    fn commit(&mut self, ctx: &CommitCtx<'_>) {
        let _ = ctx;
    }

    /// Initialises internal state at the start of a transient.
    ///
    /// `uic` is `true` when the user requested "use initial conditions"
    /// (skip the DC operating point); devices with explicit initial
    /// conditions should honour them in that case.
    fn init(&mut self, ctx: &CommitCtx<'_>, uic: bool) {
        let _ = uic;
        self.commit(ctx);
    }

    /// `true` if the device's stamp depends on the candidate solution.
    ///
    /// Purely linear, source-free circuits converge in one Newton iteration;
    /// the engine uses this to pick the iteration limit.
    fn is_nonlinear(&self) -> bool {
        false
    }

    /// How this device's matrix stamp varies across a transient — the
    /// static/dynamic partition hint for the incremental-assembly hot
    /// path; see [`StampClass`].
    ///
    /// The conservative default is [`StampClass::Dynamic`] (restamp every
    /// Newton iteration), which is always correct. Devices whose matrix
    /// contribution is fixed per `(dt, method)` should override this with
    /// [`StampClass::Linear`] to be stamped once per time point into the
    /// shared baseline; devices varying with time but not with the
    /// candidate solution should return [`StampClass::TimeVarying`].
    /// Nonlinear devices ([`Device::is_nonlinear`]) are always treated as
    /// dynamic regardless of this hint.
    fn stamp_class(&self) -> StampClass {
        StampClass::Dynamic
    }

    /// Slope-discontinuity instants of any internal waveform in `[0, t_stop]`.
    ///
    /// The transient engine aligns step boundaries with these.
    fn breakpoints(&self, t_stop: f64) -> Vec<f64> {
        let _ = t_stop;
        Vec::new()
    }

    /// Upper bound on the *next* time step (seconds), or `None` for no
    /// preference.
    ///
    /// Queried by the adaptive step controller after each accepted step
    /// (fixed stepping ignores it). Devices whose internal state evolves on
    /// its own clock — e.g. ferroelectric polarization relaxing under a
    /// constant bias, invisible to the node-voltage truncation-error
    /// estimate — should return a bound here while that state is moving,
    /// and `None` once it has settled. The controller never shrinks below
    /// the base step on account of this hint, so a conservative bound is
    /// safe.
    fn max_timestep(&self) -> Option<f64> {
        None
    }

    /// SPICE-deck line(s) describing this device, if expressible, for
    /// [`crate::export_spice`]. `names` maps node ids to netlist names and
    /// `label` is the device's instance label.
    ///
    /// Devices without a standard SPICE primitive (compact models with
    /// internal state) should emit a subcircuit call or a comment so the
    /// exported deck stays human-readable.
    fn spice_lines(&self, names: &dyn Fn(NodeId) -> String, label: &str) -> Option<String> {
        let _ = (names, label);
        None
    }
}
