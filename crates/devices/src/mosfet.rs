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

use crate::caps::TerminalCaps;

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// MOSFET card parameters (a stand-in for a PDK device card).
#[derive(Debug, Clone, PartialEq)]
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

/// `(ln(1 + eᵘ), σ(u))` from one `exp`, without overflow: the EKV
/// interpolation function and its derivative.
#[inline]
fn softplus_sigmoid(u: f64) -> (f64, f64) {
    if u > 30.0 {
        (u, 1.0 / (1.0 + (-u).exp()))
    } else {
        let e = u.exp();
        (if u < -30.0 { e } else { e.ln_1p() }, e / (1.0 + e))
    }
}

/// Drain current and derivatives `(i_d, gm, gds)` of the *n-equivalent*
/// channel of card `p` at threshold `vth`, which replaces the card's own
/// (a FeFET shifts it with its polarization); see
/// [`Mosfet::channel_currents`].
#[inline(always)]
pub(crate) fn channel_currents_at(
    p: &MosfetParams,
    vth: f64,
    vgs: f64,
    vds: f64,
) -> (f64, f64, f64) {
    let ispec = p.specific_current();
    let denom = 2.0 * p.n * p.vt;
    let ugs = (vgs - vth) / denom;
    let ugd = (vgs - vds - vth) / denom;
    let (fs, sgs) = softplus_sigmoid(ugs);
    let (fd, sgd) = softplus_sigmoid(ugd);
    let dfs = sgs / denom; // d softplus(ugs) / d vgs
    let dfd = sgd / denom;
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

/// `(sign, v_gs, v_ds)` of the n-equivalent channel at the actual terminal
/// voltages: a PMOS mirrors both voltages, and its drain-to-source current
/// is the n-equivalent current times `sign = −1`.
#[inline]
fn n_equivalent(polarity: Polarity, vg: f64, vd: f64, vs: f64) -> (f64, f64, f64) {
    match polarity {
        Polarity::Nmos => (1.0, vg - vs, vd - vs),
        Polarity::Pmos => (-1.0, vs - vg, vs - vd),
    }
}

/// Drain-to-source current of card `p` at threshold `vth` and explicit
/// terminal voltages.
pub(crate) fn drain_current_at(p: &MosfetParams, vth: f64, vg: f64, vd: f64, vs: f64) -> f64 {
    let (sign, vgs, vds) = n_equivalent(p.polarity, vg, vd, vs);
    let (i, _, _) = channel_currents_at(p, vth, vgs, vds);
    sign * i
}

/// Stamps the linearised channel of card `p` at threshold `vth` between
/// drain `d`, gate `g` and source `s`: the one channel stamp of both
/// [`Mosfet`] and [`crate::FeFet`].
pub(crate) fn stamp_channel_at(
    p: &MosfetParams,
    vth: f64,
    [d, g, s]: [NodeId; 3],
    ctx: &mut StampCtx<'_>,
) {
    let vg = ctx.v(g);
    let vd = ctx.v(d);
    let vs = ctx.v(s);
    let (sign, vgs_eq, vds_eq) = n_equivalent(p.polarity, vg, vd, vs);
    let (i_eqv, gm, gds) = channel_currents_at(p, vth, vgs_eq, vds_eq);
    // Linearise the drain-to-source current about the candidate point:
    //   I_ds ≈ i_ds + gm·Δ(v_g − v_s) + gds·Δ(v_d − v_s).
    // For a PMOS, I_ds = −I_n(v_s − v_g, v_s − v_d), so by the chain rule
    // ∂I_ds/∂v_g = −∂I_n/∂v_gs·(−1) = gm and likewise ∂I_ds/∂v_d = gds:
    // both polarities stamp the same positive conductances, and only the
    // current `i_ds` carries the polarity sign. What the conductances do
    // not model at the candidate point is the constant `ieq`.
    let i_ds = sign * i_eqv;
    let ieq = i_ds - gm * (vg - vs) - gds * (vd - vs);
    ctx.stamp_channel(d, g, s, gm, gds, ieq);
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
    caps: TerminalCaps,
}

impl Mosfet {
    /// Creates a MOSFET with the given card and terminals.
    pub fn new(params: MosfetParams, drain: NodeId, gate: NodeId, source: NodeId) -> Self {
        let caps = TerminalCaps::new(params.cgs(), params.cjunction());
        Self {
            params,
            drain,
            gate,
            source,
            caps,
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
        channel_currents_at(p, p.vth, vgs, vds)
    }

    /// Drain current of this device at explicit terminal voltages
    /// (positive current flows drain → source for NMOS conduction).
    pub fn drain_current(&self, vg: f64, vd: f64, vs: f64) -> f64 {
        drain_current_at(&self.params, self.params.vth, vg, vd, vs)
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
        let nodes = [self.drain, self.gate, self.source];
        stamp_channel_at(&self.params, self.params.vth, nodes, ctx);
    }

    fn stamp_companions(&self, ctx: &mut StampCtx<'_>) {
        self.caps.stamp(ctx, self.drain, self.gate, self.source);
    }

    fn commit(&mut self, ctx: &CommitCtx<'_>) {
        let v = [ctx.v(self.drain), ctx.v(self.gate), ctx.v(self.source)];
        self.caps.commit_v(v, ctx.dt(), ctx.method());
    }

    fn init(&mut self, ctx: &CommitCtx<'_>, _uic: bool) {
        self.caps
            .init_v([ctx.v(self.drain), ctx.v(self.gate), ctx.v(self.source)]);
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

    fn nmos() -> MosfetParams {
        TechCard::hp45().nmos
    }

    /// The one-`exp` kernel against the two-`exp` forms it replaced, on a
    /// grid crossing both ±30 cut-offs: softplus bit-equal, sigmoid within
    /// 4ε relative.
    #[test]
    fn softplus_sigmoid_matches_two_exp_forms() {
        fn softplus(u: f64) -> f64 {
            if u > 30.0 {
                u
            } else if u < -30.0 {
                u.exp()
            } else {
                u.exp().ln_1p()
            }
        }
        fn sigmoid(u: f64) -> f64 {
            if u >= 0.0 {
                1.0 / (1.0 + (-u).exp())
            } else {
                let e = u.exp();
                e / (1.0 + e)
            }
        }
        let mut worst: f64 = 0.0;
        for k in -40_000..=40_000 {
            let u = f64::from(k) * 1e-3 + 1.7e-7;
            let (sp, sg) = softplus_sigmoid(u);
            assert_eq!(sp.to_bits(), softplus(u).to_bits(), "softplus at u = {u}");
            let rel = (sg - sigmoid(u)).abs() / sigmoid(u);
            assert!(rel <= 4.0 * f64::EPSILON, "sigmoid at u = {u}: rel {rel:e}");
            worst = worst.max(rel);
        }
        for u in [-30.0, 30.0, -30.0 - 1e-12, 30.0 + 1e-12, 0.0, -0.0] {
            let (sp, sg) = softplus_sigmoid(u);
            assert_eq!(sp.to_bits(), softplus(u).to_bits(), "softplus at u = {u}");
            assert!((sg - sigmoid(u)).abs() <= 4.0 * f64::EPSILON * sigmoid(u));
        }
        assert!(worst > 0.0, "the grid must reach the rewritten branch");
    }

    /// The threshold-taking kernel against the card kernel on a card
    /// whose threshold is overwritten, bit for bit: the FeFET channel
    /// used to clone its card with the polarization-shifted threshold.
    #[test]
    fn threshold_kernel_equals_the_card_kernel() {
        let card = TechCard::hp45();
        let fe = &card.fefet;
        let mut vths = vec![card.nmos.vth, card.pmos.vth, fe.vth_low(), fe.vth_high()];
        vths.extend((-4..=4).map(|k| fe.vth_at(f64::from(k) * 0.25)));
        for base in [&card.nmos, &card.pmos, &fe.mosfet] {
            for &vth in &vths {
                let cloned = MosfetParams {
                    vth,
                    ..base.clone()
                };
                for kg in -10..=20 {
                    for kd in -10..=20 {
                        let (vgs, vds) = (f64::from(kg) * 0.071, f64::from(kd) * 0.053);
                        let want = Mosfet::channel_currents(&cloned, vgs, vds);
                        let got = channel_currents_at(base, vth, vgs, vds);
                        assert_eq!(
                            [want.0, want.1, want.2].map(f64::to_bits),
                            [got.0, got.1, got.2].map(f64::to_bits),
                            "vth {vth}, vgs {vgs}, vds {vds}"
                        );
                    }
                }
            }
        }
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
