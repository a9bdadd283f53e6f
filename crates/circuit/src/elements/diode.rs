//! Shockley diode — the canonical nonlinear element.

use crate::device::{Device, StampClass};
use crate::node::NodeId;
use crate::stamp::StampCtx;

/// An exponential (Shockley) diode.
///
/// `i = I_s·(exp(v/(n·V_T)) − 1)`, with the exponent linearised above a
/// critical voltage to keep Newton iterations bounded. Primarily used to
/// exercise and regression-test the nonlinear solver; the TCAM cells
/// themselves use the MOSFET/FeFET models from `ftcam-devices`.
#[derive(Debug, Clone)]
pub struct Diode {
    anode: NodeId,
    cathode: NodeId,
    saturation_current: f64,
    emission_coefficient: f64,
    thermal_voltage: f64,
}

impl Diode {
    /// Creates a diode from `anode` to `cathode`.
    ///
    /// # Panics
    ///
    /// Panics if `saturation_current` or `emission_coefficient` is not
    /// strictly positive.
    pub fn new(anode: NodeId, cathode: NodeId, saturation_current: f64) -> Self {
        assert!(
            saturation_current > 0.0,
            "saturation current must be positive"
        );
        Self {
            anode,
            cathode,
            saturation_current,
            emission_coefficient: 1.0,
            thermal_voltage: 0.025852, // 300 K
        }
    }

    /// Sets the emission coefficient `n` (ideality factor).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not strictly positive.
    pub fn with_emission_coefficient(mut self, n: f64) -> Self {
        assert!(n > 0.0, "emission coefficient must be positive");
        self.emission_coefficient = n;
        self
    }

    /// Diode current and small-signal conductance at forward voltage `v`.
    pub fn current_and_conductance(&self, v: f64) -> (f64, f64) {
        let nvt = self.emission_coefficient * self.thermal_voltage;
        // Linearise the exponential above v_crit to avoid overflow during
        // early Newton iterations (standard SPICE junction limiting).
        let v_crit = nvt * (nvt / (self.saturation_current * std::f64::consts::SQRT_2)).ln();
        if v <= v_crit {
            let e = (v / nvt).exp();
            let i = self.saturation_current * (e - 1.0);
            let g = self.saturation_current * e / nvt;
            (i, g)
        } else {
            let e = (v_crit / nvt).exp();
            let g = self.saturation_current * e / nvt;
            let i = self.saturation_current * (e - 1.0) + g * (v - v_crit);
            (i, g)
        }
    }
}

impl Device for Diode {
    fn spice_lines(&self, names: &dyn Fn(NodeId) -> String, label: &str) -> Option<String> {
        Some(format!(
            "D{label} {} {} DMOD_{label}\n.model DMOD_{label} D(IS={} N={})",
            names(self.anode),
            names(self.cathode),
            crate::format_spice_number(self.saturation_current),
            self.emission_coefficient
        ))
    }

    fn stamp(&self, ctx: &mut StampCtx<'_>) {
        let v = ctx.v(self.anode) - ctx.v(self.cathode);
        let (i, g) = self.current_and_conductance(v);
        // Companion: i(v*) + g·(v − v*) = g·v + (i − g·v*).
        ctx.stamp_conductance(self.anode, self.cathode, g);
        ctx.stamp_current(self.anode, self.cathode, i - g * v);
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn stamp_class(&self) -> StampClass {
        StampClass::Dynamic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn current_is_exponential_in_forward_bias() {
        let d = Diode::new(NodeId(1), NodeId::GROUND, 1e-15);
        let (i1, _) = d.current_and_conductance(0.6);
        let (i2, _) = d.current_and_conductance(0.6 + 0.025852 * std::f64::consts::LN_10);
        assert!((i2 / i1 - 10.0).abs() < 0.01, "decade per 59.5 mV");
    }

    #[test]
    fn reverse_bias_saturates() {
        let d = Diode::new(NodeId(1), NodeId::GROUND, 1e-15);
        let (i, g) = d.current_and_conductance(-1.0);
        assert!((i + 1e-15).abs() < 1e-17);
        assert!(g > 0.0, "conductance stays positive for Newton stability");
    }

    #[test]
    fn limiting_keeps_large_voltages_finite() {
        let d = Diode::new(NodeId(1), NodeId::GROUND, 1e-15);
        let (i, g) = d.current_and_conductance(5.0);
        assert!(i.is_finite() && g.is_finite());
    }

    #[test]
    fn conductance_is_derivative_of_current() {
        let d = Diode::new(NodeId(1), NodeId::GROUND, 1e-14).with_emission_coefficient(1.2);
        for v in [-0.5, 0.0, 0.3, 0.55] {
            let h = 1e-7;
            let (ip, _) = d.current_and_conductance(v + h);
            let (im, _) = d.current_and_conductance(v - h);
            let (_, g) = d.current_and_conductance(v);
            let fd = (ip - im) / (2.0 * h);
            assert!(
                (fd - g).abs() <= 1e-6 * g.abs().max(1e-12),
                "v = {v}: fd {fd} vs g {g}"
            );
        }
    }
}
