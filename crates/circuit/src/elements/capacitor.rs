//! Linear capacitor with backward-Euler / trapezoidal companion models.

use crate::device::{Device, StampClass};
use crate::node::NodeId;
use crate::stamp::{CommitCtx, IntegrationMethod, StampCtx};

/// A linear capacitor between two nodes.
///
/// During transient analysis the capacitor is replaced by its companion
/// model (a conductance in parallel with a current source) according to the
/// active [`IntegrationMethod`]; during DC analysis it is an open circuit.
///
/// # Examples
///
/// ```
/// use ftcam_circuit::{Circuit, elements::Capacitor};
/// let mut ckt = Circuit::new();
/// let ml = ckt.node("ml");
/// // 20 fF match-line capacitance, precharged to 0.8 V.
/// ckt.add(Capacitor::with_initial_voltage(ml, ckt.ground(), 20e-15, 0.8));
/// ```
#[derive(Debug, Clone)]
pub struct Capacitor {
    a: NodeId,
    b: NodeId,
    capacitance: f64,
    /// Initial voltage honoured when the transient runs with UIC.
    initial_voltage: Option<f64>,
    /// Committed voltage across the capacitor at the previous step.
    v_prev: f64,
    /// Committed current at the previous step (needed by trapezoidal).
    i_prev: f64,
}

impl Capacitor {
    /// Creates a capacitor of `farads` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not strictly positive and finite.
    pub fn new(a: NodeId, b: NodeId, farads: f64) -> Self {
        assert!(
            farads.is_finite() && farads > 0.0,
            "capacitance must be positive and finite, got {farads}"
        );
        Self {
            a,
            b,
            capacitance: farads,
            initial_voltage: None,
            v_prev: 0.0,
            i_prev: 0.0,
        }
    }

    /// Creates a capacitor with an explicit initial voltage `v(a) − v(b)`,
    /// honoured when the transient starts with *use initial conditions*.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not strictly positive and finite.
    pub fn with_initial_voltage(a: NodeId, b: NodeId, farads: f64, volts: f64) -> Self {
        let mut c = Self::new(a, b, farads);
        c.initial_voltage = Some(volts);
        c.v_prev = volts;
        c
    }

    /// Capacitance in farads.
    pub fn capacitance(&self) -> f64 {
        self.capacitance
    }

    /// Voltage across the capacitor at the last committed step.
    pub fn voltage(&self) -> f64 {
        self.v_prev
    }

    /// Sets the committed voltage, as if a previous transient had ended
    /// there; the next transient started with *use initial conditions*
    /// carries it unless an explicit initial voltage overrides it.
    pub fn set_voltage(&mut self, volts: f64) {
        self.v_prev = volts;
        self.i_prev = 0.0;
    }

    /// Energy currently stored, `½·C·V²` (joules).
    pub fn stored_energy(&self) -> f64 {
        0.5 * self.capacitance * self.v_prev * self.v_prev
    }

    fn companion(&self, dt: f64, method: IntegrationMethod) -> (f64, f64) {
        // Returns (geq, ieq) with the device current modelled as
        // i = geq·v + ieq.
        match method {
            IntegrationMethod::BackwardEuler => {
                let g = self.capacitance / dt;
                (g, -g * self.v_prev)
            }
            IntegrationMethod::Trapezoidal => {
                let g = 2.0 * self.capacitance / dt;
                (g, -g * self.v_prev - self.i_prev)
            }
        }
    }
}

impl Device for Capacitor {
    fn spice_lines(&self, names: &dyn Fn(NodeId) -> String, label: &str) -> Option<String> {
        let ic = self
            .initial_voltage
            .map_or(String::new(), |v| format!(" IC={v}"));
        Some(format!(
            "C{label} {} {} {}{ic}",
            names(self.a),
            names(self.b),
            crate::format_spice_number(self.capacitance)
        ))
    }

    fn stamp(&self, ctx: &mut StampCtx<'_>) {
        let Some(dt) = ctx.dt() else {
            return; // open circuit in DC
        };
        let (geq, ieq) = self.companion(dt, ctx.method());
        ctx.stamp_norton(self.a, self.b, geq, ieq);
    }

    // The companion conductance C/dt (or 2C/dt) depends only on (dt,
    // method); the history current ieq lands on the rhs, which every
    // class may vary.
    fn stamp_class(&self) -> StampClass {
        StampClass::Linear
    }

    fn terminals(&self) -> Option<Vec<NodeId>> {
        Some(vec![self.a, self.b])
    }

    fn commit(&mut self, ctx: &CommitCtx<'_>) {
        let v = ctx.v(self.a) - ctx.v(self.b);
        // Only the trapezoidal companion reads `i_prev`; under backward
        // Euler it stays at the zero `init` or `set_voltage` gave it.
        match ctx.dt() {
            Some(dt) if ctx.method() == IntegrationMethod::Trapezoidal => {
                let (geq, ieq) = self.companion(dt, ctx.method());
                self.i_prev = geq * v + ieq;
            }
            Some(_) => {}
            None => self.i_prev = 0.0,
        }
        self.v_prev = v;
    }

    fn init(&mut self, ctx: &CommitCtx<'_>, uic: bool) {
        if uic {
            // Honour an explicit initial condition; otherwise keep whatever
            // charge the capacitor carried over from a previous transient
            // (consecutive program/search runs compose this way).
            if let Some(ic) = self.initial_voltage {
                self.v_prev = ic;
            }
            self.i_prev = 0.0;
            return;
        }
        self.v_prev = ctx.v(self.a) - ctx.v(self.b);
        self.i_prev = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_euler_companion() {
        let mut c = Capacitor::new(NodeId(1), NodeId::GROUND, 1e-12);
        c.v_prev = 0.5;
        let (g, ieq) = c.companion(1e-9, IntegrationMethod::BackwardEuler);
        assert!((g - 1e-3).abs() < 1e-12);
        assert!((ieq + 0.5e-3).abs() < 1e-12);
    }

    #[test]
    fn trapezoidal_companion_uses_previous_current() {
        let mut c = Capacitor::new(NodeId(1), NodeId::GROUND, 1e-12);
        c.v_prev = 0.5;
        c.i_prev = 1e-6;
        let (g, ieq) = c.companion(1e-9, IntegrationMethod::Trapezoidal);
        assert!((g - 2e-3).abs() < 1e-12);
        assert!((ieq + (1e-3 + 1e-6)).abs() < 1e-12);
    }

    #[test]
    fn stored_energy_formula() {
        let c = Capacitor::with_initial_voltage(NodeId(1), NodeId::GROUND, 2e-15, 1.0);
        assert!((c.stored_energy() - 1e-15).abs() < 1e-24);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_negative_capacitance() {
        let _ = Capacitor::new(NodeId(1), NodeId::GROUND, -1e-15);
    }
}
