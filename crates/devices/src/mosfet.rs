//! Smooth EKV-style MOSFET compact model.
//!
//! The drain current uses the classic charge-interpolation expression
//!
//! ```text
//! I_D = I_spec · [ F(v_GS) − F(v_GD) ] · (1 + λ·|v_DS|)
//! F(v) = ln²(1 + exp((v − V_th)/(2·n·V_T)))
//! I_spec = 2·n·k'·(W/L)·V_T²
//! ```
//!
//! which reproduces exponential subthreshold conduction (slope `n·V_T·ln 10`
//! per decade), square-law saturation, triode behaviour, and is infinitely
//! differentiable — a single expression valid across all regions, ideal for
//! Newton convergence. Source/drain symmetry is inherent: swapping the
//! terminals negates the current.

use ftcam_circuit::{CommitCtx, Device, NodeId, StampClass, StampCtx};
use serde::{Deserialize, Serialize};

use crate::caps::CapState;

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Polarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// MOSFET card parameters (a stand-in for a PDK device card).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MosfetParams {
    /// Channel polarity.
    pub polarity: Polarity,
    /// Threshold voltage magnitude (volts, positive for both polarities).
    pub vth: f64,
    /// Subthreshold slope factor `n` (typically 1.2–1.5).
    pub n: f64,
    /// Process transconductance `k' = µ·C_ox` (A/V²).
    pub kp: f64,
    /// Channel width (meters).
    pub width: f64,
    /// Channel length (meters).
    pub length: f64,
    /// Channel-length-modulation coefficient λ (1/V).
    pub lambda: f64,
    /// Thermal voltage `V_T` (volts); 25.85 mV at 300 K.
    pub vt: f64,
    /// Gate-oxide capacitance per area (F/m²).
    pub cox: f64,
    /// Overlap capacitance per width (F/m) added to each of C_GS / C_GD.
    pub cov: f64,
    /// Drain/source junction capacitance per width (F/m), to ground.
    pub cj: f64,
}

impl MosfetParams {
    /// Specific current `I_spec = 2·n·k'·(W/L)·V_T²`.
    pub fn specific_current(&self) -> f64 {
        2.0 * self.n * self.kp * (self.width / self.length) * self.vt * self.vt
    }

    /// Total gate-source (or gate-drain) capacitance: half the channel plus
    /// overlap.
    pub fn cgs(&self) -> f64 {
        0.5 * self.cox * self.width * self.length + self.cov * self.width
    }

    /// Junction capacitance at drain or source (to ground).
    pub fn cjunction(&self) -> f64 {
        self.cj * self.width
    }

    /// Returns a copy scaled to `w_mult` times the card width.
    pub fn scaled(&self, w_mult: f64) -> Self {
        Self {
            width: self.width * w_mult,
            ..self.clone()
        }
    }
}

/// `f(u) = ln(1 + e^u)` evaluated without overflow.
#[inline]
fn softplus(u: f64) -> f64 {
    if u > 30.0 {
        u
    } else if u < -30.0 {
        u.exp()
    } else {
        u.exp().ln_1p()
    }
}

/// Logistic function `σ(u)` without overflow.
#[inline]
fn sigmoid(u: f64) -> f64 {
    if u >= 0.0 {
        1.0 / (1.0 + (-u).exp())
    } else {
        let e = u.exp();
        e / (1.0 + e)
    }
}

/// A four-terminal (D, G, S + implicit bulk at ground) MOSFET.
///
/// Gate capacitances (C_GS, C_GD) and junction capacitances are folded into
/// the device so netlists stay concise and capacitive search/match-line
/// loading — the quantity TCAM energy lives and dies by — is always present.
#[derive(Debug, Clone)]
pub struct Mosfet {
    params: MosfetParams,
    drain: NodeId,
    gate: NodeId,
    source: NodeId,
    cgs: CapState,
    cgd: CapState,
    cdb: CapState,
    csb: CapState,
}

impl Mosfet {
    /// Creates a MOSFET with the given card and terminals.
    pub fn new(params: MosfetParams, drain: NodeId, gate: NodeId, source: NodeId) -> Self {
        let cgs = CapState::new(params.cgs());
        let cgd = CapState::new(params.cgs());
        let cdb = CapState::new(params.cjunction());
        let csb = CapState::new(params.cjunction());
        Self {
            params,
            drain,
            gate,
            source,
            cgs,
            cgd,
            cdb,
            csb,
        }
    }

    /// The device card.
    pub fn params(&self) -> &MosfetParams {
        &self.params
    }

    /// Drain current and derivatives `(i_d, gm, gds)` of the *n-equivalent*
    /// channel at the given `v_gs`, `v_ds` (both already polarity-corrected).
    ///
    /// `gm = ∂I/∂v_gs`, `gds = ∂I/∂v_ds`; the source derivative follows from
    /// `∂I/∂v_s = −(gm + gds)`.
    pub fn channel_currents(p: &MosfetParams, vgs: f64, vds: f64) -> (f64, f64, f64) {
        let ispec = p.specific_current();
        let denom = 2.0 * p.n * p.vt;
        let ugs = (vgs - p.vth) / denom;
        let ugd = (vgs - vds - p.vth) / denom;
        let fs = softplus(ugs);
        let fd = softplus(ugd);
        let dfs = sigmoid(ugs) / denom; // d softplus(ugs) / d vgs
        let dfd = sigmoid(ugd) / denom;
        // F = f², dF/dv = 2·f·f'.
        let ff = fs * fs - fd * fd;
        let clm = 1.0 + p.lambda * vds.abs();
        let dclm_dvds = p.lambda * vds.signum();
        let i = ispec * ff * clm;
        // ∂/∂vgs: both ugs and ugd move with vgs.
        let dff_dvgs = 2.0 * (fs * dfs - fd * dfd);
        // ∂/∂vds: only ugd (−1) and CLM move with vds.
        let dff_dvds = 2.0 * fd * dfd;
        let gm = ispec * dff_dvgs * clm;
        let gds = ispec * (dff_dvds * clm + ff * dclm_dvds);
        (i, gm, gds)
    }

    /// Drain current of this device at explicit terminal voltages
    /// (positive current flows drain → source for NMOS conduction).
    pub fn drain_current(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        let (sign, vgs, vds) = match self.params.polarity {
            Polarity::Nmos => (1.0, vg - vs, vd - vs),
            Polarity::Pmos => (-1.0, vs - vg, vs - vd),
        };
        let (i, _, _) = Self::channel_currents(&self.params, vgs, vds);
        sign * i
    }

    fn stamp_channel(&self, ctx: &mut StampCtx<'_>) {
        let vg = ctx.v(self.gate);
        let vd = ctx.v(self.drain);
        let vs = ctx.v(self.source);
        let (vgs_eq, vds_eq) = match self.params.polarity {
            Polarity::Nmos => (vg - vs, vd - vs),
            Polarity::Pmos => (vs - vg, vs - vd),
        };
        let (i_eqv, gm, gds) = Self::channel_currents(&self.params, vgs_eq, vds_eq);
        // Map back to actual terminals. For both polarities the linearised
        // current from drain to source is:
        //   I_ds ≈ I* + gm·Δ(vg−vs)·s... — working through the chain rule,
        // the conductances stay positive and stamp identically; only the
        // equivalent current source keeps the polarity sign.
        let (i_ds, vgs_act, vds_act) = match self.params.polarity {
            Polarity::Nmos => (i_eqv, vg - vs, vd - vs),
            Polarity::Pmos => (-i_eqv, vg - vs, vd - vs),
        };
        // For PMOS: I_ds = −I_n(vs−vg, vs−vd); ∂I_ds/∂vg = −∂I_n/∂vgs·(−1) = gm.
        // Likewise ∂I_ds/∂vd = gds. So gm/gds stamp the same way.
        let ieq = i_ds - gm * vgs_act - gds * vds_act;
        ctx.stamp_transconductance(self.drain, self.source, self.gate, self.source, gm);
        ctx.stamp_conductance(self.drain, self.source, gds);
        // The conductance primitive already models gds·(vd − vs); the
        // transconductance models gm·(vg − vs); the residual is a constant.
        ctx.stamp_current(self.drain, self.source, ieq);
    }
}

impl Device for Mosfet {
    fn spice_lines(&self, names: &dyn Fn(NodeId) -> String, label: &str) -> Option<String> {
        let kind = match self.params.polarity {
            Polarity::Nmos => "NMOS",
            Polarity::Pmos => "PMOS",
        };
        let f = ftcam_circuit::format_spice_number;
        Some(format!(
            "M{label} {} {} {} 0 MOD_{label} W={} L={}\n.model MOD_{label} {kind}(VTO={} KP={} LAMBDA={})",
            names(self.drain),
            names(self.gate),
            names(self.source),
            f(self.params.width),
            f(self.params.length),
            f(self.params.vth),
            f(self.params.kp),
            f(self.params.lambda),
        ))
    }

    fn stamp(&self, ctx: &mut StampCtx<'_>) {
        self.stamp_channel(ctx);
        self.cgs.stamp(ctx, self.gate, self.source);
        self.cgd.stamp(ctx, self.gate, self.drain);
        self.cdb.stamp(ctx, self.drain, NodeId::GROUND);
        self.csb.stamp(ctx, self.source, NodeId::GROUND);
    }

    fn commit(&mut self, ctx: &CommitCtx<'_>) {
        self.cgs.commit(ctx, self.gate, self.source);
        self.cgd.commit(ctx, self.gate, self.drain);
        self.cdb.commit(ctx, self.drain, NodeId::GROUND);
        self.csb.commit(ctx, self.source, NodeId::GROUND);
    }

    fn init(&mut self, ctx: &CommitCtx<'_>, _uic: bool) {
        self.cgs.init(ctx, self.gate, self.source);
        self.cgd.init(ctx, self.gate, self.drain);
        self.cdb.init(ctx, self.drain, NodeId::GROUND);
        self.csb.init(ctx, self.source, NodeId::GROUND);
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

    fn nmos() -> MosfetParams {
        TechCard::hp45().nmos
    }

    #[test]
    fn subthreshold_slope_is_n_vt_per_decade() {
        let p = nmos();
        // Deep weak inversion: the interpolation approaches the exact
        // exponential only a few decades below threshold.
        let v1 = p.vth - 0.35;
        let dv = p.n * p.vt * std::f64::consts::LN_10;
        let (i1, _, _) = Mosfet::channel_currents(&p, v1, 0.8);
        let (i2, _, _) = Mosfet::channel_currents(&p, v1 + dv, 0.8);
        assert!((i2 / i1 - 10.0).abs() < 0.5, "slope ratio {}", i2 / i1);
    }

    #[test]
    fn saturation_current_is_square_law() {
        let p = nmos();
        // Deep strong inversion: doubling the overdrive quadruples I.
        let (i1, _, _) = Mosfet::channel_currents(&p, p.vth + 0.3, 1.2);
        let (i2, _, _) = Mosfet::channel_currents(&p, p.vth + 0.6, 1.2);
        let ratio = i2 / i1;
        assert!(
            (3.4..4.6).contains(&ratio),
            "square-law ratio {ratio} (CLM and n soften it slightly)"
        );
    }

    fn test_nodes() -> (NodeId, NodeId, NodeId) {
        let mut ckt = ftcam_circuit::Circuit::new();
        (ckt.node("d"), ckt.node("g"), ckt.node("s"))
    }

    #[test]
    fn symmetry_swapping_terminals_negates_current() {
        let p = nmos();
        let (d, g, s) = test_nodes();
        let dev = Mosfet::new(p, d, g, s);
        let fwd = dev.drain_current(0.8, 0.5, 0.0);
        let rev = {
            // Swap drain/source roles by swapping their voltages.
            dev.drain_current(0.8, 0.0, 0.5)
        };
        // CLM |vds| keeps magnitude equal under swap.
        assert!(
            (fwd + rev).abs() < 1e-9 * fwd.abs().max(1e-12),
            "{fwd} vs {rev}"
        );
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let p = nmos();
        for &(vgs, vds) in &[(0.2, 0.05), (0.45, 0.4), (0.8, 0.8), (1.0, 0.1), (0.0, 0.8)] {
            let h = 1e-6;
            let (_, gm, gds) = Mosfet::channel_currents(&p, vgs, vds);
            let (ip, _, _) = Mosfet::channel_currents(&p, vgs + h, vds);
            let (im, _, _) = Mosfet::channel_currents(&p, vgs - h, vds);
            let fd_gm = (ip - im) / (2.0 * h);
            let (ip, _, _) = Mosfet::channel_currents(&p, vgs, vds + h);
            let (im, _, _) = Mosfet::channel_currents(&p, vgs, vds - h);
            let fd_gds = (ip - im) / (2.0 * h);
            assert!(
                (fd_gm - gm).abs() <= 1e-4 * gm.abs().max(1e-12),
                "gm at ({vgs},{vds}): {gm} vs {fd_gm}"
            );
            assert!(
                (fd_gds - gds).abs() <= 1e-4 * gds.abs().max(1e-12),
                "gds at ({vgs},{vds}): {gds} vs {fd_gds}"
            );
        }
    }

    #[test]
    fn pmos_conducts_with_low_gate() {
        let card = TechCard::hp45();
        let (d, g, s) = test_nodes();
        let dev = Mosfet::new(card.pmos.clone(), d, g, s);
        // Source at VDD, gate at 0 (on): current flows source → drain,
        // so drain→source current is negative.
        let i_on = dev.drain_current(0.0, 0.0, card.vdd);
        assert!(i_on < -1e-6, "PMOS on-current {i_on:.3e}");
        // Gate at VDD (off): negligible current.
        let i_off = dev.drain_current(card.vdd, 0.0, card.vdd);
        assert!(i_off.abs() < 1e-9, "PMOS off-current {i_off:.3e}");
    }

    #[test]
    fn gate_capacitance_is_positive_and_ff_scale() {
        let p = nmos();
        let c = p.cgs();
        assert!(c > 1e-17 && c < 1e-14, "C_GS = {c:.3e} F");
    }

    #[test]
    fn ion_ioff_ratio_exceeds_five_decades() {
        let p = nmos();
        let (ion, _, _) = Mosfet::channel_currents(&p, 0.8, 0.8);
        let (ioff, _, _) = Mosfet::channel_currents(&p, 0.0, 0.8);
        assert!(ion / ioff > 1e5, "Ion/Ioff = {:.2e}", ion / ioff);
    }
}
