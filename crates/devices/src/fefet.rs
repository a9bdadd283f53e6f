//! Ferroelectric FET compact model.
//!
//! An MFIS FeFET is modelled as the EKV-style MOSFET core from
//! [`crate::Mosfet`] whose threshold voltage is shifted by the normalised
//! ferroelectric polarization `p`:
//!
//! ```text
//! V_th(p) = V_th0 − p · MW / 2
//! ```
//!
//! where `MW` is the memory window. `p = +1` (programmed) gives the low-V_th
//! state, `p = −1` (erased) the high-V_th state. Polarization follows the
//! Preisach/NLS dynamics of [`crate::ferro::Polarization`], driven by the
//! gate–source voltage scaled by a coupling factor (the fraction of the gate
//! voltage dropping across the ferroelectric).
//!
//! The polarization is updated *per accepted time step* using the converged
//! gate voltage (explicit splitting). This keeps the Newton Jacobian clean;
//! the O(dt) splitting error is consistent with the backward-Euler default
//! and is negligible at the step sizes used for programming pulses. The
//! ferroelectric displacement current `A·P_r·dp/dt` is injected with a
//! one-step lag so write energy is drawn from the driving source.

use ftcam_circuit::{CommitCtx, Device, NodeId, StampClass, StampCtx};

use crate::caps::TerminalCaps;
use crate::ferro::{FerroParams, Polarization};
use crate::mosfet::{drain_current_at, stamp_channel_at, MosfetParams};

/// FeFET card parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FeFetParams {
    /// Underlying MOSFET card (threshold = mid-window `V_th0`).
    pub mosfet: MosfetParams,
    /// Ferroelectric switching model.
    pub ferro: FerroParams,
    /// Memory window: `V_th(erased) − V_th(programmed)` (volts).
    pub memory_window: f64,
    /// Remanent polarization (C/m²).
    pub remanent_polarization: f64,
    /// Ferroelectric capacitor area (m²); defaults to the gate area.
    pub fe_area: f64,
    /// Fraction of `v_GS` dropping across the ferroelectric layer.
    pub fe_coupling: f64,
}

impl FeFetParams {
    /// Threshold voltage at normalised polarization `p`.
    pub fn vth_at(&self, p: f64) -> f64 {
        self.mosfet.vth - p * self.memory_window / 2.0
    }

    /// Low (programmed) threshold voltage.
    pub fn vth_low(&self) -> f64 {
        self.vth_at(1.0)
    }

    /// High (erased) threshold voltage.
    pub fn vth_high(&self) -> f64 {
        self.vth_at(-1.0)
    }

    /// Total switchable ferroelectric charge `2·P_r·A` (coulombs).
    pub fn switching_charge(&self) -> f64 {
        2.0 * self.remanent_polarization * self.fe_area
    }
}

/// A three-terminal FeFET (drain, gate, source; bulk grounded).
///
/// # Programming
///
/// Either simulate a program pulse transiently (the polarization follows the
/// NLS dynamics and write energy appears on the gate driver), or call
/// [`FeFet::set_polarization`] / [`FeFet::program_bit`] between analyses for
/// ideal instant programming.
///
/// # Examples
///
/// ```
/// use ftcam_circuit::Circuit;
/// use ftcam_devices::{FeFet, TechCard};
///
/// let card = TechCard::hp45();
/// let mut ckt = Circuit::new();
/// let (ml, sl) = (ckt.node("ml"), ckt.node("sl"));
/// let mut fefet = FeFet::new(card.fefet.clone(), ml, sl, ckt.ground());
/// fefet.program_bit(true); // low-V_th state
/// assert!(fefet.threshold_voltage() < card.fefet.mosfet.vth);
/// ckt.add(fefet);
/// ```
#[derive(Debug, Clone)]
pub struct FeFet {
    params: FeFetParams,
    drain: NodeId,
    gate: NodeId,
    source: NodeId,
    polarization: Polarization,
    caps: TerminalCaps,
    /// Ferroelectric switching charge from the last committed step
    /// (coulombs, gate → source), injected during the next step as a
    /// current `q / dt`. Dividing by the *live* step's `dt` at stamp time
    /// conserves the charge exactly even when the adaptive controller
    /// changes the step length between the two steps.
    q_fe_lag: f64,
    /// Cumulative ferroelectric switching energy drawn at the gate (joules).
    switching_energy: f64,
    /// Adaptive-stepping bound while the polarization is actively moving
    /// (see [`ftcam_circuit::Device::max_timestep`]).
    dt_hint: Option<f64>,
}

impl FeFet {
    /// Creates a FeFET with the given card and terminals, at `p = 0`.
    pub fn new(params: FeFetParams, drain: NodeId, gate: NodeId, source: NodeId) -> Self {
        let caps = TerminalCaps::new(params.mosfet.cgs(), params.mosfet.cjunction());
        Self {
            params,
            drain,
            gate,
            source,
            polarization: Polarization::default(),
            caps,
            q_fe_lag: 0.0,
            switching_energy: 0.0,
            dt_hint: None,
        }
    }

    /// The device card.
    pub fn params(&self) -> &FeFetParams {
        &self.params
    }

    /// Current normalised polarization.
    pub fn polarization(&self) -> f64 {
        self.polarization.value()
    }

    /// Ideal instant (re)programming to an arbitrary polarization.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[-1, 1]`.
    pub fn set_polarization(&mut self, p: f64) {
        self.polarization.set(p);
    }

    /// Programs the canonical binary states: `true` → `p = +1` (low V_th),
    /// `false` → `p = −1` (high V_th).
    pub fn program_bit(&mut self, low_vth: bool) {
        self.polarization.set(if low_vth { 1.0 } else { -1.0 });
    }

    /// Effective threshold voltage at the current polarization.
    pub fn threshold_voltage(&self) -> f64 {
        self.params.vth_at(self.polarization.value())
    }

    /// Energy drawn by ferroelectric switching so far (joules).
    pub fn switching_energy(&self) -> f64 {
        self.switching_energy
    }

    /// Adds `joules` to the cumulative switching energy, e.g. the energy
    /// an identical device switched on this one's behalf.
    pub fn add_switching_energy(&mut self, joules: f64) {
        self.switching_energy += joules;
    }

    /// Drain current at explicit terminal voltages with the current state.
    pub fn drain_current(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        drain_current_at(&self.params.mosfet, self.threshold_voltage(), vg, vd, vs)
    }
}

impl Device for FeFet {
    fn spice_lines(&self, names: &dyn Fn(NodeId) -> String, label: &str) -> Option<String> {
        let f = ftcam_circuit::format_spice_number;
        Some(format!(
            "X{label} {} {} {} FEFET_MFIS p0={} vth_low={} vth_high={} pr={} area={}",
            names(self.drain),
            names(self.gate),
            names(self.source),
            f(self.polarization.value()),
            f(self.params.vth_low()),
            f(self.params.vth_high()),
            f(self.params.remanent_polarization),
            f(self.params.fe_area),
        ))
    }

    fn stamp(&self, ctx: &mut StampCtx<'_>) {
        // Channel with polarization-shifted threshold.
        let nodes = [self.drain, self.gate, self.source];
        stamp_channel_at(&self.params.mosfet, self.threshold_voltage(), nodes, ctx);
    }

    fn stamp_companions(&self, ctx: &mut StampCtx<'_>) {
        // Gate stack capacitances.
        self.caps.stamp(ctx, self.drain, self.gate, self.source);
        // Lagged ferroelectric displacement current (gate → source).
        if !ctx.is_dc() && self.q_fe_lag != 0.0 {
            if let Some(dt) = ctx.dt() {
                ctx.stamp_current(self.gate, self.source, self.q_fe_lag / dt);
            }
        }
    }

    fn commit(&mut self, ctx: &CommitCtx<'_>) {
        let (vd, vg, vs) = (ctx.v(self.drain), ctx.v(self.gate), ctx.v(self.source));
        self.caps.commit_v([vd, vg, vs], ctx.dt(), ctx.method());
        if let Some(dt) = ctx.dt() {
            let vgs = vg - vs;
            let v_fe = self.params.fe_coupling * vgs;
            let dp = self.polarization.advance(&self.params.ferro, v_fe, dt);
            // Switching charge flows through the gate: q = P_r·A·dp.
            let q = self.params.remanent_polarization * self.params.fe_area * dp;
            self.q_fe_lag = q;
            self.switching_energy += q * vgs;
            // While the polarization is moving, bound the next step so a
            // single step cannot absorb more than a small fraction of the
            // full swing: the lagged displacement current and the supply
            // energy trapezoid both sample at step boundaries, so large
            // steps through an active switching transient would smear the
            // switching current beyond recognition. Settled devices
            // (|dp| ≈ 0, the common case in search cycles) impose nothing.
            const MAX_DP_PER_STEP: f64 = 0.01;
            self.dt_hint = if dp.abs() > 1e-6 {
                Some(dt * MAX_DP_PER_STEP / dp.abs())
            } else {
                None
            };
        } else {
            self.q_fe_lag = 0.0;
            self.dt_hint = None;
        }
    }

    fn max_timestep(&self) -> Option<f64> {
        self.dt_hint
    }

    fn init(&mut self, ctx: &CommitCtx<'_>, _uic: bool) {
        self.caps
            .init_v([ctx.v(self.drain), ctx.v(self.gate), ctx.v(self.source)]);
        self.q_fe_lag = 0.0;
        self.dt_hint = None;
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    // The channel linearisation moves with the candidate voltages:
    // restamp every Newton iteration.
    fn stamp_class(&self) -> StampClass {
        StampClass::Dynamic
    }

    // The junction capacitances return through the implicit bulk.
    fn terminals(&self) -> Option<Vec<NodeId>> {
        Some(vec![self.drain, self.gate, self.source, NodeId::GROUND])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cards::TechCard;

    fn fefet_params() -> FeFetParams {
        TechCard::hp45().fefet
    }

    fn test_nodes() -> (NodeId, NodeId) {
        let mut ckt = ftcam_circuit::Circuit::new();
        (ckt.node("d"), ckt.node("g"))
    }

    #[test]
    fn memory_window_separates_thresholds() {
        let p = fefet_params();
        assert!(p.vth_high() - p.vth_low() > 0.8, "memory window too small");
        assert!(p.vth_low() < 0.3, "low state must conduct at VDD");
    }

    #[test]
    fn programmed_state_conducts_erased_blocks() {
        let p = fefet_params();
        let vdd = 0.8;
        let (d, g) = test_nodes();
        let mut dev = FeFet::new(p, d, g, NodeId::GROUND);
        dev.program_bit(true);
        let i_on = dev.drain_current(vdd, vdd, 0.0);
        dev.program_bit(false);
        let i_off = dev.drain_current(vdd, vdd, 0.0);
        assert!(
            i_on / i_off > 1e4,
            "state on/off ratio {:.2e} (on {:.2e}, off {:.2e})",
            i_on / i_off,
            i_on,
            i_off
        );
    }

    #[test]
    fn switching_charge_is_femto_coulomb_scale() {
        let p = fefet_params();
        let q = p.switching_charge();
        assert!(q > 1e-16 && q < 1e-13, "Q_sw = {q:.3e} C");
    }

    #[test]
    fn threshold_tracks_polarization_linearly() {
        let p = fefet_params();
        let (d, g) = test_nodes();
        let mut dev = FeFet::new(p.clone(), d, g, NodeId::GROUND);
        dev.set_polarization(0.0);
        assert!((dev.threshold_voltage() - p.mosfet.vth).abs() < 1e-12);
        dev.set_polarization(0.5);
        let expect = p.mosfet.vth - 0.25 * p.memory_window;
        assert!((dev.threshold_voltage() - expect).abs() < 1e-12);
    }
}
