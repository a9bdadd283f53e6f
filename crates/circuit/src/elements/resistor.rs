//! Linear resistor.

use crate::device::{Device, StampClass};
use crate::node::NodeId;
use crate::stamp::StampCtx;

/// A linear resistor between two nodes.
///
/// # Examples
///
/// ```
/// use ftcam_circuit::{Circuit, elements::Resistor};
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add(Resistor::new(a, ckt.ground(), 10e3)); // 10 kΩ
/// ```
#[derive(Debug, Clone)]
pub struct Resistor {
    a: NodeId,
    b: NodeId,
    conductance: f64,
}

impl Resistor {
    /// Creates a resistor of `ohms` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive and finite.
    pub fn new(a: NodeId, b: NodeId, ohms: f64) -> Self {
        assert!(
            ohms.is_finite() && ohms > 0.0,
            "resistance must be positive and finite, got {ohms}"
        );
        Self {
            a,
            b,
            conductance: 1.0 / ohms,
        }
    }

    /// Resistance in ohms.
    pub fn resistance(&self) -> f64 {
        1.0 / self.conductance
    }

    /// Changes the resistance (takes effect at the next analysis step).
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive and finite.
    pub fn set_resistance(&mut self, ohms: f64) {
        assert!(
            ohms.is_finite() && ohms > 0.0,
            "resistance must be positive and finite, got {ohms}"
        );
        self.conductance = 1.0 / ohms;
    }
}

impl Device for Resistor {
    fn stamp(&self, ctx: &mut StampCtx<'_>) {
        ctx.stamp_conductance(self.a, self.b, self.conductance);
    }

    fn stamp_class(&self) -> StampClass {
        StampClass::Linear
    }

    fn terminals(&self) -> Option<Vec<NodeId>> {
        Some(vec![self.a, self.b])
    }

    fn spice_lines(&self, names: &dyn Fn(NodeId) -> String, label: &str) -> Option<String> {
        Some(format!(
            "R{label} {} {} {}",
            names(self.a),
            names(self.b),
            crate::format_spice_number(self.resistance())
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_resistance() {
        let _ = Resistor::new(NodeId::GROUND, NodeId::GROUND, 0.0);
    }

    #[test]
    fn stores_conductance() {
        let r = Resistor::new(NodeId(1), NodeId(2), 4e3);
        assert!((r.resistance() - 4e3).abs() < 1e-9);
        assert_eq!(r.terminals(), Some(vec![NodeId(1), NodeId(2)]));
    }
}
