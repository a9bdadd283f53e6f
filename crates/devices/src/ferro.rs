//! Ferroelectric polarization dynamics: Preisach-style hysteresis with
//! nucleation-limited-switching (NLS) time dependence.
//!
//! The model tracks a normalised polarization `p ∈ [−1, 1]` (multiply by the
//! remanent polarization `P_r` and the capacitor area to get charge). Two
//! ingredients:
//!
//! 1. **Static hysteresis band.** The major loop's ascending branch
//!    `p_asc(v) = tanh((v − V_c)/V_w)` and descending branch
//!    `p_dsc(v) = tanh((v + V_c)/V_w)` bound the admissible region at every
//!    voltage. A state strictly inside the band is stable (this is what
//!    gives minor loops and multi-level states); a state outside relaxes
//!    toward the nearest branch.
//! 2. **Switching kinetics.** Relaxation toward the band uses a
//!    field-dependent time constant `τ(v) = τ_min + τ_0·exp(−(|v|/V_0)^β)`
//!    (a Merz/NLS-flavoured law): nanoseconds at programming voltages,
//!    effectively frozen at read voltages — which is exactly the property
//!    FeFET TCAM designs rely on (non-destructive read).
//!
//! The integration is explicit with internal sub-stepping, which is
//! unconditionally stable here because the update is a clamped exponential
//! relaxation.

/// Parameters of the polarization model.
#[derive(Debug, Clone, PartialEq)]
pub struct FerroParams {
    /// Coercive voltage `V_c` (volts).
    pub vc: f64,
    /// Branch steepness `V_w` (volts); smaller = squarer loop.
    pub vw: f64,
    /// Asymptotic switching time at infinite field (seconds).
    pub tau_min: f64,
    /// Prefactor of the field-dependent term (seconds).
    pub tau0: f64,
    /// Activation voltage `V_0` of the NLS law (volts).
    pub v0: f64,
    /// NLS exponent β.
    pub beta: f64,
}

impl Default for FerroParams {
    /// HZO-like 10 nm ferroelectric, coercive voltage ≈ 1 V at the gate,
    /// full switching in ≈ 10 ns at ±4 V (values in line with published
    /// FeFET measurements).
    fn default() -> Self {
        Self {
            vc: 1.0,
            vw: 0.35,
            tau_min: 2e-9,
            tau0: 40.0,
            // Calibrated so a ±4 V gate pulse (≈ ±3.4 V across the
            // ferroelectric after the MFIS divider) switches in ~10 ns while
            // VDD-level reads stay non-disturbing for >10⁶ cycles.
            v0: 0.46,
            beta: 1.6,
        }
    }
}

impl FerroParams {
    /// Ascending (lower) major-loop branch at voltage `v`.
    pub fn branch_ascending(&self, v: f64) -> f64 {
        ((v - self.vc) / self.vw).tanh()
    }

    /// Descending (upper) major-loop branch at voltage `v`.
    pub fn branch_descending(&self, v: f64) -> f64 {
        ((v + self.vc) / self.vw).tanh()
    }

    /// Field-dependent relaxation time constant at voltage `v`.
    pub fn tau(&self, v: f64) -> f64 {
        self.tau_min + self.tau0 * (-(v.abs() / self.v0).powf(self.beta)).exp()
    }
}

/// Normalised ferroelectric polarization state.
///
/// # Examples
///
/// ```
/// use ftcam_devices::ferro::{FerroParams, Polarization};
///
/// let params = FerroParams::default();
/// let mut p = Polarization::new(-1.0); // erased (high-V_th) state
/// // A +4 V, 20 ns program pulse switches the polarization positive.
/// p.advance(&params, 4.0, 20e-9);
/// assert!(p.value() > 0.9);
/// // A 0.8 V read pulse barely disturbs it.
/// let before = p.value();
/// p.advance(&params, 0.8, 10e-9);
/// assert!((p.value() - before).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Polarization {
    p: f64,
}

impl Polarization {
    /// Creates a state with the given normalised polarization.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[-1, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((-1.0..=1.0).contains(&p), "polarization must be in [-1, 1]");
        Self { p }
    }

    /// Current normalised polarization in `[-1, 1]`.
    pub fn value(&self) -> f64 {
        self.p
    }

    /// Sets the state directly (instant ideal programming).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[-1, 1]`.
    pub fn set(&mut self, p: f64) {
        assert!((-1.0..=1.0).contains(&p), "polarization must be in [-1, 1]");
        self.p = p;
    }

    /// Advances the state by `dt` seconds under a constant applied voltage,
    /// returning the polarization change `Δp`.
    ///
    /// Sub-steps internally so callers may pass arbitrary `dt`.
    pub fn advance(&mut self, params: &FerroParams, v: f64, dt: f64) -> f64 {
        let start = self.p;
        let tau = params.tau(v);
        // Sub-step at τ/4 for accuracy; exponential update is stable anyway.
        let n_sub = ((dt / (0.25 * tau)).ceil() as usize).clamp(1, 64);
        let h = dt / n_sub as f64;
        let lo = params.branch_ascending(v);
        let hi = params.branch_descending(v);
        let decay = 1.0 - (-h / tau).exp();
        for _ in 0..n_sub {
            let target = self.p.clamp(lo, hi);
            self.p += (target - self.p) * decay;
        }
        self.p = self.p.clamp(-1.0, 1.0);
        self.p - start
    }
}

impl Default for Polarization {
    fn default() -> Self {
        Self::new(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> FerroParams {
        FerroParams::default()
    }

    /// Sweep the voltage slowly and record the quasi-static loop.
    ///
    /// The dwell must be ≫ τ(V_c) ≈ 3 s so the loop reflects the *static*
    /// coercive voltage; fast sweeps see the kinetically-broadened loop
    /// (higher apparent coercivity), which is physical but not what this
    /// test checks.
    fn sweep_loop(params: &FerroParams, v_max: f64, steps: usize) -> Vec<(f64, f64)> {
        let mut p = Polarization::new(-1.0);
        let mut out = Vec::new();
        let dwell = 100.0;
        let up: Vec<f64> = (0..=steps)
            .map(|i| -v_max + 2.0 * v_max * i as f64 / steps as f64)
            .collect();
        for &v in up.iter().chain(up.iter().rev()) {
            p.advance(params, v, dwell);
            out.push((v, p.value()));
        }
        out
    }

    #[test]
    fn major_loop_is_hysteretic_with_correct_coercivity() {
        let prm = params();
        let loop_pts = sweep_loop(&prm, 4.0, 200);
        let n = loop_pts.len() / 2;
        // Find zero crossing on the up sweep (should be near +vc).
        let up_zero = loop_pts[..n]
            .windows(2)
            .find(|w| w[0].1 < 0.0 && w[1].1 >= 0.0)
            .map(|w| w[1].0)
            .expect("up-sweep crosses zero");
        let down_zero = loop_pts[n..]
            .windows(2)
            .find(|w| w[0].1 > 0.0 && w[1].1 <= 0.0)
            .map(|w| w[1].0)
            .expect("down-sweep crosses zero");
        assert!(
            (up_zero - prm.vc).abs() < 0.3,
            "up coercive voltage {up_zero} vs {}",
            prm.vc
        );
        assert!(
            (down_zero + prm.vc).abs() < 0.3,
            "down coercive voltage {down_zero} vs −{}",
            prm.vc
        );
        // Loop opening: at v = 0 the two sweeps differ by ≈ 2·p_r.
        let p_up_at0 = loop_pts[..n]
            .iter()
            .min_by(|a, b| (a.0).abs().partial_cmp(&(b.0).abs()).unwrap())
            .unwrap()
            .1;
        let p_dn_at0 = loop_pts[n..]
            .iter()
            .min_by(|a, b| (a.0).abs().partial_cmp(&(b.0).abs()).unwrap())
            .unwrap()
            .1;
        assert!(
            p_dn_at0 - p_up_at0 > 1.5,
            "remanence opening {}",
            p_dn_at0 - p_up_at0
        );
    }

    #[test]
    fn saturates_at_plus_minus_one() {
        let prm = params();
        let mut p = Polarization::new(0.0);
        p.advance(&prm, 5.0, 1e-6);
        assert!(p.value() > 0.99 && p.value() <= 1.0);
        p.advance(&prm, -5.0, 1e-6);
        assert!(p.value() < -0.99 && p.value() >= -1.0);
    }

    #[test]
    fn read_voltage_does_not_disturb() {
        let prm = params();
        let mut p = Polarization::new(1.0);
        // One million 1 ns reads at −0.8 V (worst-case polarity).
        p.advance(&prm, -0.8, 1e-3);
        assert!(p.value() > 0.95, "read disturb too strong: {}", p.value());
    }

    #[test]
    fn programming_speed_depends_on_amplitude() {
        let prm = params();
        let mut fast = Polarization::new(-1.0);
        let mut slow = Polarization::new(-1.0);
        fast.advance(&prm, 4.0, 10e-9);
        slow.advance(&prm, 2.0, 10e-9);
        assert!(
            fast.value() > slow.value() + 0.2,
            "4 V pulse ({}) must switch much further than 2 V ({})",
            fast.value(),
            slow.value()
        );
    }

    #[test]
    fn partial_switching_accumulates_over_pulses() {
        let prm = params();
        let mut p = Polarization::new(-1.0);
        let mut previous = p.value();
        for _ in 0..5 {
            p.advance(&prm, 2.6, 2e-9);
            assert!(p.value() >= previous);
            previous = p.value();
        }
        assert!(p.value() > -1.0 && p.value() < 1.0, "multi-level state");
    }

    #[test]
    fn minor_state_is_stable_at_zero_bias() {
        let prm = params();
        let mut p = Polarization::new(0.3);
        p.advance(&prm, 0.0, 1.0); // one full second unbiased
        assert!((p.value() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn advance_returns_delta() {
        let prm = params();
        let mut p = Polarization::new(-1.0);
        let before = p.value();
        let dp = p.advance(&prm, 4.0, 5e-9);
        assert!((p.value() - before - dp).abs() < 1e-12);
        assert!(dp > 0.0);
    }

    #[test]
    #[should_panic(expected = "polarization")]
    fn rejects_out_of_range_state() {
        let _ = Polarization::new(1.5);
    }
}
