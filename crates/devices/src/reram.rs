//! Bistable resistive memory element for the 2T-2R TCAM baseline.

use ftcam_circuit::{Device, NodeId, StampClass, StampCtx};

/// Programmed state of a [`Reram`] cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReramState {
    /// Low-resistance state (SET).
    LowResistance,
    /// High-resistance state (RESET).
    HighResistance,
}

/// ReRAM card parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ReramParams {
    /// Low-resistance state value (ohms).
    pub r_lrs: f64,
    /// High-resistance state value (ohms).
    pub r_hrs: f64,
    /// SET/RESET programming energy per event (joules) — used by the
    /// array-level write-energy model (forming/programming is not simulated
    /// transiently; search never switches the cell).
    pub write_energy: f64,
}

impl Default for ReramParams {
    /// HfO₂-like filamentary ReRAM: 5 kΩ / 10 MΩ, ~100 fJ per write.
    ///
    /// The 2000x resistance window is at the strong end of published HfO₂
    /// devices but necessary for NOR-style ratio sensing: every matching
    /// cell's HRS path droops the match line simultaneously, so the HRS
    /// must carry ≲ 0.1 µA while one LRS path must sink > 100 µA.
    fn default() -> Self {
        Self {
            r_lrs: 5e3,
            r_hrs: 10e6,
            write_energy: 100e-15,
        }
    }
}

/// A two-terminal programmable resistor.
///
/// Search operations never change the state (the 2T-2R baseline only reads
/// the resistance ratio); programming is modelled as an instant state change
/// via [`Reram::set_state`] plus the card's `write_energy` at the
/// architecture level.
#[derive(Debug, Clone)]
pub struct Reram {
    params: ReramParams,
    a: NodeId,
    b: NodeId,
    state: ReramState,
}

impl Reram {
    /// Creates a ReRAM element between `a` and `b` in the given state.
    ///
    /// # Panics
    ///
    /// Panics if the card resistances are not positive with `r_hrs > r_lrs`.
    pub fn new(params: ReramParams, a: NodeId, b: NodeId, state: ReramState) -> Self {
        assert!(
            params.r_lrs > 0.0 && params.r_hrs > params.r_lrs,
            "need 0 < r_lrs < r_hrs"
        );
        Self {
            params,
            a,
            b,
            state,
        }
    }

    /// Current programmed state.
    pub fn state(&self) -> ReramState {
        self.state
    }

    /// Reprograms the element (ideal instant write).
    pub fn set_state(&mut self, state: ReramState) {
        self.state = state;
    }

    /// Resistance in the current state (ohms).
    pub fn resistance(&self) -> f64 {
        match self.state {
            ReramState::LowResistance => self.params.r_lrs,
            ReramState::HighResistance => self.params.r_hrs,
        }
    }
}

impl Device for Reram {
    fn spice_lines(&self, names: &dyn Fn(NodeId) -> String, label: &str) -> Option<String> {
        Some(format!(
            "R{label} {} {} {} * ReRAM in {:?}",
            names(self.a),
            names(self.b),
            ftcam_circuit::format_spice_number(self.resistance()),
            self.state
        ))
    }

    fn stamp(&self, ctx: &mut StampCtx<'_>) {
        ctx.stamp_conductance(self.a, self.b, 1.0 / self.resistance());
    }

    // The stored state only changes through the explicit write API
    // between analyses, never inside one, so the stamp is linear for the
    // duration of any transient.
    fn stamp_class(&self) -> StampClass {
        StampClass::Linear
    }

    fn terminals(&self) -> Option<Vec<NodeId>> {
        Some(vec![self.a, self.b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_nodes() -> (NodeId, NodeId) {
        let mut ckt = ftcam_circuit::Circuit::new();
        (ckt.node("a"), ckt.node("b"))
    }

    #[test]
    fn state_switches_resistance() {
        let (a, b) = test_nodes();
        let mut r = Reram::new(ReramParams::default(), a, b, ReramState::LowResistance);
        assert_eq!(r.resistance(), 5e3);
        r.set_state(ReramState::HighResistance);
        assert_eq!(r.resistance(), 10e6);
        assert_eq!(r.state(), ReramState::HighResistance);
    }

    #[test]
    #[should_panic(expected = "r_lrs < r_hrs")]
    fn rejects_inverted_resistances() {
        let params = ReramParams {
            r_lrs: 1e6,
            r_hrs: 1e3,
            write_energy: 0.0,
        };
        let (a, b) = test_nodes();
        let _ = Reram::new(params, a, b, ReramState::LowResistance);
    }
}
