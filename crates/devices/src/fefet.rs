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
use serde::{Deserialize, Serialize};

use crate::caps::CapState;
use crate::ferro::{FerroParams, Polarization};
use crate::mosfet::{Mosfet, MosfetParams, Polarity};

/// FeFET card parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    cgs: CapState,
    cgd: CapState,
    cdb: CapState,
    csb: CapState,
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
        let cgs = CapState::new(params.mosfet.cgs());
        let cgd = CapState::new(params.mosfet.cgs());
        let cdb = CapState::new(params.mosfet.cjunction());
        let csb = CapState::new(params.mosfet.cjunction());
        Self {
            params,
            drain,
            gate,
            source,
            polarization: Polarization::default(),
            cgs,
            cgd,
            cdb,
            csb,
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

    fn effective_mosfet(&self) -> MosfetParams {
        MosfetParams {
            vth: self.threshold_voltage(),
            ..self.params.mosfet.clone()
        }
    }

    /// Drain current at explicit terminal voltages with the current state.
    pub fn drain_current(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        let p = self.effective_mosfet();
        let (sign, vgs, vds) = match p.polarity {
            Polarity::Nmos => (1.0, vg - vs, vd - vs),
            Polarity::Pmos => (-1.0, vs - vg, vs - vd),
        };
        let (i, _, _) = Mosfet::channel_currents(&p, vgs, vds);
        sign * i
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
        let p = self.effective_mosfet();
        let vg = ctx.v(self.gate);
        let vd = ctx.v(self.drain);
        let vs = ctx.v(self.source);
        let (vgs_eq, vds_eq) = match p.polarity {
            Polarity::Nmos => (vg - vs, vd - vs),
            Polarity::Pmos => (vs - vg, vs - vd),
        };
        let (i_eqv, gm, gds) = Mosfet::channel_currents(&p, vgs_eq, vds_eq);
        let i_ds = match p.polarity {
            Polarity::Nmos => i_eqv,
            Polarity::Pmos => -i_eqv,
        };
        let ieq = i_ds - gm * (vg - vs) - gds * (vd - vs);
        ctx.stamp_transconductance(self.drain, self.source, self.gate, self.source, gm);
        ctx.stamp_conductance(self.drain, self.source, gds);
        ctx.stamp_current(self.drain, self.source, ieq);
        // Gate stack capacitances.
        self.cgs.stamp(ctx, self.gate, self.source);
        self.cgd.stamp(ctx, self.gate, self.drain);
        self.cdb.stamp(ctx, self.drain, NodeId::GROUND);
        self.csb.stamp(ctx, self.source, NodeId::GROUND);
        // Lagged ferroelectric displacement current (gate → source).
        if !ctx.is_dc() && self.q_fe_lag != 0.0 {
            if let Some(dt) = ctx.dt() {
                ctx.stamp_current(self.gate, self.source, self.q_fe_lag / dt);
            }
        }
    }

    fn commit(&mut self, ctx: &CommitCtx<'_>) {
        self.cgs.commit(ctx, self.gate, self.source);
        self.cgd.commit(ctx, self.gate, self.drain);
        self.cdb.commit(ctx, self.drain, NodeId::GROUND);
        self.csb.commit(ctx, self.source, NodeId::GROUND);
        if let Some(dt) = ctx.dt() {
            let vgs = ctx.v(self.gate) - ctx.v(self.source);
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
        self.cgs.init(ctx, self.gate, self.source);
        self.cgd.init(ctx, self.gate, self.drain);
        self.cdb.init(ctx, self.drain, NodeId::GROUND);
        self.csb.init(ctx, self.source, NodeId::GROUND);
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
