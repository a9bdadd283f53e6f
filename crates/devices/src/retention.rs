//! Retention and endurance models for the ferroelectric state.
//!
//! Two reliability axes every FeFET memory paper must address, layered on
//! top of the switching dynamics in [`crate::ferro`]:
//!
//! * **Retention** — depolarization over time: trapped charge slowly
//!   screens the remanent polarization, shrinking the effective memory
//!   window. Measured HZO FeFETs lose polarization logarithmically in
//!   time, extrapolating to ≥ 10 years at a usable window; the model here
//!   uses the standard `p(t) = p₀ · (1 − d·log₁₀(1 + t/t₀))` form.
//! * **Endurance** — program/erase cycling degrades the window (wake-up
//!   then fatigue); modelled as a fatigue factor that sets in beyond a
//!   knee cycle count, matching the ~10⁵–10¹⁰ cycle range reported for
//!   HZO depending on field strength.
//!
//! Both produce *derated cards* so any testbench can be re-run at a given
//! age/cycle count — e.g. "does the 10-year-old array still search
//! correctly?" becomes an ordinary simulation.

use crate::cards::TechCard;

/// Retention/endurance parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliabilityParams {
    /// Logarithmic depolarization coefficient `d` (fraction of remanent
    /// polarization lost per decade of time).
    pub depolarization_per_decade: f64,
    /// Retention reference time `t₀` (seconds).
    pub retention_t0: f64,
    /// Cycle count where fatigue sets in.
    pub fatigue_knee_cycles: f64,
    /// Window loss per decade of cycles beyond the knee.
    pub fatigue_per_decade: f64,
}

impl Default for ReliabilityParams {
    /// HZO-like numbers: ~3 %/decade depolarization, fatigue knee at 10⁷
    /// cycles with ~8 %/decade window loss beyond it.
    fn default() -> Self {
        Self {
            depolarization_per_decade: 0.03,
            retention_t0: 1.0,
            fatigue_knee_cycles: 1e7,
            fatigue_per_decade: 0.08,
        }
    }
}

impl ReliabilityParams {
    /// Fraction of the polarization surviving after `seconds` of storage.
    pub fn retention_factor(&self, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            return 1.0;
        }
        let decades = (1.0 + seconds / self.retention_t0).log10();
        (1.0 - self.depolarization_per_decade * decades).clamp(0.0, 1.0)
    }

    /// Fraction of the memory window surviving after `cycles` program/erase
    /// cycles.
    pub fn endurance_factor(&self, cycles: f64) -> f64 {
        if cycles <= self.fatigue_knee_cycles {
            return 1.0;
        }
        let decades = (cycles / self.fatigue_knee_cycles).log10();
        (1.0 - self.fatigue_per_decade * decades).clamp(0.0, 1.0)
    }

    /// Ten-year retention factor (the figure datasheets quote).
    pub fn ten_year_retention(&self) -> f64 {
        self.retention_factor(10.0 * 365.25 * 24.0 * 3600.0)
    }

    /// Derates a technology card to a given age and cycle count: the FeFET
    /// memory window and remanent polarization shrink by the combined
    /// factor (polarization loss maps linearly onto both).
    pub fn derate_card(&self, card: &TechCard, seconds: f64, cycles: f64) -> TechCard {
        let factor = self.retention_factor(seconds) * self.endurance_factor(cycles);
        let mut derated = card.clone();
        derated.fefet.memory_window *= factor;
        derated.fefet.remanent_polarization *= factor;
        derated
    }

    /// Storage time (seconds) until the surviving window fraction drops to
    /// `fraction`, or `None` if it never does within 10¹² s.
    pub fn retention_lifetime(&self, fraction: f64) -> Option<f64> {
        if fraction >= 1.0 {
            return Some(0.0);
        }
        // Invert the logarithmic law analytically.
        let decades = (1.0 - fraction) / self.depolarization_per_decade;
        let t = self.retention_t0 * (10f64.powf(decades) - 1.0);
        (t <= 1e12).then_some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_is_monotone_and_bounded() {
        let p = ReliabilityParams::default();
        let mut last = 1.0;
        for &t in &[0.0, 1.0, 1e3, 1e6, 1e9] {
            let f = p.retention_factor(t);
            assert!(f <= last + 1e-12, "retention not monotone at {t}");
            assert!((0.0..=1.0).contains(&f));
            last = f;
        }
    }

    #[test]
    fn ten_year_retention_keeps_most_of_the_window() {
        let p = ReliabilityParams::default();
        let f = p.ten_year_retention();
        // ~8.5 decades · 3 %/decade ≈ 26 % loss: usable but visible.
        assert!(f > 0.6 && f < 0.85, "10-year factor {f}");
    }

    #[test]
    fn endurance_flat_below_knee_then_fades() {
        let p = ReliabilityParams::default();
        assert_eq!(p.endurance_factor(1e5), 1.0);
        assert_eq!(p.endurance_factor(1e7), 1.0);
        let f9 = p.endurance_factor(1e9);
        assert!((f9 - 0.84).abs() < 1e-9, "2 decades past knee: {f9}");
    }

    #[test]
    fn derated_card_shrinks_window_only_for_fefet() {
        let p = ReliabilityParams::default();
        let nominal = TechCard::hp45();
        let aged = p.derate_card(&nominal, 10.0 * 365.25 * 24.0 * 3600.0, 1e9);
        assert!(aged.fefet.memory_window < nominal.fefet.memory_window);
        assert!(aged.fefet.remanent_polarization < nominal.fefet.remanent_polarization);
        assert_eq!(aged.nmos, nominal.nmos);
        assert_eq!(aged.vdd, nominal.vdd);
        // Still a usable window: low-V_th below VDD, high-V_th above.
        assert!(aged.fefet.vth_low() < aged.vdd);
    }

    #[test]
    fn retention_lifetime_inverts_the_law() {
        let p = ReliabilityParams::default();
        let t = p.retention_lifetime(0.9).expect("within range");
        let f = p.retention_factor(t);
        assert!((f - 0.9).abs() < 1e-6, "round trip gives {f}");
        // Never losing anything takes zero time; absurd demands return None.
        assert_eq!(p.retention_lifetime(1.0), Some(0.0));
        assert_eq!(p.retention_lifetime(0.0), None);
    }
}
